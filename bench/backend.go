package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/rdbms"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/synth"
	"repro/internal/uql"
)

// daemonProgram is server.RunDaemon's unexported set-up program; the
// backend-parity test fails if the two drift apart.
const daemonProgram = `
EXTRACT temperature, population, founded FROM docs USING city KIND city INTO cityfacts;
STORE cityfacts INTO TABLE extracted;
`

// Corpus shape: the daemon's defaults (cmd/unidbd flags left alone).
const (
	daemonPeople  = 20
	daemonFiller  = 30
	daemonWorkers = 4
)

func genCorpus(seed int64, cities int) (*doc.Corpus, *synth.Truth) {
	return synth.Generate(synth.Config{
		Seed: seed, Cities: cities, People: daemonPeople, Filler: daemonFiller, MentionsPerPerson: 2,
	})
}

// instance is one served backend: what unidbd is between "listening on"
// and SIGTERM. Exactly one of single and sharded is set.
type instance struct {
	be      server.Backend
	single  *core.System
	sharded *shard.ShardedSystem
	reopen  bool // the directory already held the table

	docs       int           // corpus documents
	ingestTime time.Duration // the set-up program or bulk ingest alone

	srv      *server.Server
	addr     string
	serveErr chan error
}

// openBackend builds the backend the way server.RunDaemon does: the
// daemon's UQL program under core.OpenDir for one engine, shard.Open +
// BulkIngest for shards; real directory, default flush policy.
func openBackend(dir string, corpus *doc.Corpus, shards int) (*instance, error) {
	in := &instance{docs: corpus.Len()}
	ctx := context.Background()
	sysCfg := core.Config{Corpus: corpus, Workers: daemonWorkers}
	if shards > 1 {
		ss, err := shard.Open(shard.Config{Shards: shards, Dir: dir, System: sysCfg})
		if err != nil {
			return nil, err
		}
		rows, err := ss.ExtractedRows()
		if err != nil {
			ss.Close()
			return nil, err
		}
		if rows == 0 {
			start := time.Now()
			if _, err := ss.BulkIngest(ctx, "city", 0); err != nil {
				ss.Close()
				return nil, err
			}
			in.ingestTime = time.Since(start)
		}
		in.reopen = rows > 0
		in.sharded, in.be = ss, ss
		return in, nil
	}
	s, rep, err := core.OpenDir(dir, sysCfg, func(s *core.System) error {
		start := time.Now()
		_, err := s.Generate(ctx, daemonProgram, uql.Options{})
		in.ingestTime = time.Since(start)
		return err
	})
	if err != nil {
		return nil, err
	}
	in.reopen = rep.Reopened
	in.single, in.be = s, s
	return in, nil
}

// serve starts server.New(...).Serve on a loopback port with default
// options. wrap, when non-nil, decorates the backend handed to the
// server (the traced run's span recorder).
func (in *instance) serve(wrap func(server.Backend) server.Backend) error {
	be := in.be
	if wrap != nil {
		be = wrap(be)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.srv = server.New(be, server.Options{})
	in.addr = ln.Addr().String()
	in.serveErr = make(chan error, 1)
	go func() { in.serveErr <- in.srv.Serve(ln) }()
	// "Accepting" means a client gets an answer: one health round trip.
	c, err := in.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Health(context.Background())
	return err
}

// stop drains the server and waits for its accept loop; the backend
// stays open.
func (in *instance) stop() error {
	if in.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.serveErr; err == nil {
		err = serr
	}
	in.srv = nil
	return err
}

// shutdown is stop followed by the backend's Close (the closing
// checkpoint and warm-state save).
func (in *instance) shutdown() error {
	err := in.stop()
	if cerr := in.be.Close(); err == nil {
		err = cerr
	}
	return err
}

// engines returns every core.System behind the backend.
func (in *instance) engines() []*core.System {
	if in.single != nil {
		return []*core.System{in.single}
	}
	out := make([]*core.System, in.sharded.Shards())
	for i := range out {
		out[i] = in.sharded.Shard(i)
	}
	return out
}

// owner returns the engine holding an entity's rows.
func (in *instance) owner(entity string) *core.System {
	if in.single != nil {
		return in.single
	}
	return in.sharded.Shard(in.sharded.Owner(entity))
}

// diskBytes sums data.udb and the WAL segment directories under a data
// dir (one db/ for a single engine, one per shard otherwise).
func diskBytes(dir string) (data, wal int64, segments int, err error) {
	err = filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		switch {
		case fi.Name() == rdbms.DataFileName:
			data += fi.Size()
		case filepath.Base(filepath.Dir(path)) == rdbms.WALDirName:
			wal += fi.Size()
			if filepath.Ext(path) == ".seg" {
				segments++
			}
		}
		return nil
	})
	return data, wal, segments, err
}

// dial opens one client connection.
func (in *instance) dial() (*server.Client, error) {
	c, err := server.Dial(in.addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", in.addr, err)
	}
	return c, nil
}
