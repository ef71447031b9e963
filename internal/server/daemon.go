package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/synth"
	"repro/internal/uql"
)

// DaemonConfig assembles a full unidbd instance: corpus, system, server.
// It is shared between cmd/unidbd and the integration tests, so the
// binary the fault and crash suites exercise is the binary users run.
type DaemonConfig struct {
	// Addr to listen on ("127.0.0.1:0" picks a free port; the chosen
	// address is announced on Out and through Ready).
	Addr string
	// DataDir, when set, backs the system with the crash-safe on-disk
	// engine under this directory (core.OpenDir lifecycle: reopen
	// recovers, close checkpoints). Empty runs in-memory.
	DataDir string

	// Shards > 1 partitions the extracted table by entity hash across
	// that many engines (shard.Open over per-shard subdirectories of
	// DataDir, or in-memory shards when DataDir is empty). The wire
	// protocol is unchanged; responses touching dead shards carry a
	// Degraded marker. 0 or 1 serves a single engine.
	Shards int

	// Synthetic corpus shape (the daemon's data source, as in cmd/unidb).
	Cities, People, Filler int
	Seed                   int64
	Workers                int
	CorruptFrac            float64

	// Server holds the robustness knobs (admission, deadlines, drain).
	Server Options

	// Out receives human-oriented lifecycle lines ("listening on ...",
	// "draining", ...). Nil discards them.
	Out io.Writer

	// Ready, when non-nil, receives the bound listen address once the
	// server is accepting (tests use it instead of parsing Out).
	Ready func(addr net.Addr)

	// Signals overrides the shutdown signal set (default SIGINT,
	// SIGTERM).
	Signals []os.Signal
}

const daemonProgram = `
EXTRACT temperature, population, founded FROM docs USING city KIND city INTO cityfacts;
STORE cityfacts INTO TABLE extracted;
`

func (cfg *DaemonConfig) withDefaults() DaemonConfig {
	out := *cfg
	if out.Addr == "" {
		out.Addr = "127.0.0.1:7407"
	}
	if out.Cities == 0 {
		out.Cities = 50
	}
	if out.People == 0 {
		out.People = 20
	}
	if out.Filler == 0 {
		out.Filler = 30
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Workers == 0 {
		out.Workers = 4
	}
	if len(out.Signals) == 0 {
		out.Signals = []os.Signal{syscall.SIGINT, syscall.SIGTERM}
	}
	return out
}

func (cfg *DaemonConfig) logf(format string, args ...any) {
	if cfg.Out != nil {
		fmt.Fprintf(cfg.Out, "unidbd: "+format+"\n", args...)
	}
}

// RunDaemon opens the system, serves until a shutdown signal, then
// drains and closes. The sequence on SIGTERM is the graceful-drain
// contract: stop accepting, finish in-flight requests under the drain
// timeout, then System.Close() — which checkpoints, so the next open of
// the same DataDir is the zero-write clean reopen.
func RunDaemon(cfg DaemonConfig) error {
	c := cfg.withDefaults()

	corpus, _ := synth.Generate(synth.Config{
		Seed: c.Seed, Cities: c.Cities, People: c.People, Filler: c.Filler,
		MentionsPerPerson: 2, CorruptFrac: c.CorruptFrac,
	})
	sysCfg := core.Config{Corpus: corpus, Workers: c.Workers}
	setup := func(s *core.System) error {
		_, err := s.Generate(context.Background(), daemonProgram, uql.Options{})
		return err
	}

	var sys Backend
	switch {
	case c.Shards > 1:
		ss, err := shard.Open(shard.Config{Shards: c.Shards, Dir: c.DataDir, System: sysCfg})
		if err != nil {
			return err
		}
		rows, err := ss.ExtractedRows()
		if err != nil {
			ss.Close()
			return err
		}
		if rows == 0 {
			// Fresh layout: extract once on the cluster and route each
			// partition to its owning shard (the sharded analogue of the
			// single-engine setup program).
			if _, err := ss.BulkIngest(context.Background(), "city", 0); err != nil {
				ss.Close()
				return err
			}
		}
		c.logf("sharded: %d shards, dir %q, reopened=%v", c.Shards, c.DataDir, rows > 0)
		sys = ss
	case c.DataDir != "":
		s, rep, err := core.OpenDir(c.DataDir, sysCfg, setup)
		if err != nil {
			return err
		}
		sys = s
		c.logf("data dir %s: reopened=%v", c.DataDir, rep.Reopened)
	default:
		s, err := core.New(sysCfg)
		if err != nil {
			return err
		}
		if err := setup(s); err != nil {
			return err
		}
		sys = s
	}

	srv := New(sys, c.Server)
	ln, err := net.Listen("tcp", c.Addr)
	if err != nil {
		sys.Close()
		return err
	}

	// Install the shutdown handler BEFORE announcing readiness: once
	// "listening on" is out, an orchestrator may SIGTERM at any moment,
	// and an unhandled SIGTERM in that window would kill the process
	// instead of draining it.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, c.Signals...)
	defer signal.Stop(sigCh)

	c.logf("listening on %s", ln.Addr())
	if c.Ready != nil {
		c.Ready(ln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		c.logf("received %v, draining", sig)
	case err := <-serveErr:
		// Listener died without a shutdown: still close the system
		// cleanly before reporting.
		cerr := sys.Close()
		if err == nil {
			err = cerr
		}
		return err
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainBudget(c.Server))
	defer cancel()
	shutdownErr := srv.Shutdown(drainCtx)
	<-serveErr // accept loop has exited by now (listener closed)
	closeErr := sys.Close()
	if shutdownErr != nil {
		return shutdownErr
	}
	if closeErr != nil {
		return closeErr
	}
	c.logf("drained and closed cleanly")
	return nil
}

func drainBudget(o Options) time.Duration {
	if o.DrainTimeout > 0 {
		return o.DrainTimeout
	}
	return 10 * time.Second
}
