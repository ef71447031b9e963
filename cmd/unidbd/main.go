// Command unidbd is the serving daemon of the user layer: it opens the
// end-to-end system (optionally over the crash-safe on-disk engine) and
// serves the DGE exploitation modes over a length-prefixed JSON protocol
// on TCP. Point `unidb -remote ADDR <command>` at it, or speak the
// protocol directly.
//
// Robustness contract:
//
//   - Admission control: at most -max-inflight requests execute at once;
//     excess requests are shed immediately with a typed "overloaded"
//     error, and connections beyond -max-conns are refused at accept.
//   - Deadlines: every request runs under a server-side deadline
//     (request-supplied, clamped by -max-timeout) that the storage engine
//     honors mid-scan.
//   - Graceful drain: SIGTERM/SIGINT stops accepting, finishes in-flight
//     requests under -drain-timeout, then closes the system — so the next
//     open of the same -data directory is a zero-write clean reopen.
//   - Sharding: -shards N partitions the extracted table by entity hash
//     across N engines behind the same protocol; reads fan out and merge
//     byte-identically to a single engine, and shard loss degrades to
//     partial results carrying a "degraded" marker instead of failing.
//
// Usage:
//
//	unidbd [-addr HOST:PORT] [-data DIR] [corpus flags] [robustness flags]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/server"
)

func main() {
	fs := flag.NewFlagSet("unidbd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7407", "listen address (port 0 picks a free port)")
	dataDir := fs.String("data", "", "back the system with the crash-safe on-disk engine under this directory")
	shards := fs.Int("shards", 1, "partition the extracted table by entity hash across this many engines")
	cities := fs.Int("cities", 50, "synthetic city articles")
	people := fs.Int("people", 20, "synthetic people")
	filler := fs.Int("filler", 30, "synthetic filler articles")
	seed := fs.Int64("seed", 1, "corpus seed")
	workers := fs.Int("workers", 4, "cluster workers")
	corrupt := fs.Float64("corrupt", 0, "fraction of corrupted city articles")
	maxInflight := fs.Int("max-inflight", 64, "admission control: concurrently executing requests")
	maxConns := fs.Int("max-conns", 1024, "maximum accepted connections")
	idleTimeout := fs.Duration("idle-timeout", 30*time.Second, "per-connection idle/read deadline")
	reqTimeout := fs.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "clamp on request-supplied deadlines")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	err := server.RunDaemon(server.DaemonConfig{
		Addr:    *addr,
		DataDir: *dataDir,
		Shards:  *shards,
		Cities:  *cities, People: *people, Filler: *filler,
		Seed: *seed, Workers: *workers, CorruptFrac: *corrupt,
		Server: server.Options{
			MaxInFlight:           *maxInflight,
			MaxConns:              *maxConns,
			IdleTimeout:           *idleTimeout,
			DefaultRequestTimeout: *reqTimeout,
			MaxRequestTimeout:     *maxTimeout,
			DrainTimeout:          *drainTimeout,
			ErrorLog:              os.Stderr,
		},
		Out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unidbd:", err)
		os.Exit(1)
	}
}
