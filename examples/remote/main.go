// Remote: the PR6 serving front end end to end, in one process — start
// a unidbd daemon (the exact code path cmd/unidbd runs) over a durable
// data directory, drive it over TCP with the protocol client that backs
// `unidb -remote`, watch the admission controller shed a request past
// its deadline, then SIGTERM the daemon and observe the graceful-drain
// contract: exit without error, and a zero-write second life.
//
// The equivalent shell session against real binaries:
//
//	unidbd -data /tmp/mydb &
//	unidb -remote 127.0.0.1:7407 search temperature Madison
//	unidb -remote 127.0.0.1:7407 sql "SELECT COUNT(*) FROM extracted"
//	unidb -remote 127.0.0.1:7407 -timeout 5s ask average March temperature Madison
//	unidb -remote 127.0.0.1:7407 health
//	kill -TERM %1   # drains in-flight requests, checkpoints, snapshots
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	dir, err := os.MkdirTemp("", "remote-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. First life: the daemon. RunDaemon is what cmd/unidbd calls —
	// corpus, system over dir, TCP server, signal-driven drain.
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	cfg := server.DaemonConfig{
		Addr:    "127.0.0.1:0",
		DataDir: dir,
		Cities:  20, People: 8, Filler: 12, Seed: 3, Workers: 4,
		Out:   os.Stdout,
		Ready: func(a net.Addr) { addrCh <- a },
	}
	go func() { done <- server.RunDaemon(cfg) }()
	addr := (<-addrCh).String()

	// 2. The wire client (the same one behind `unidb -remote`).
	cli, err := server.Dial(addr, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	hits, err := cli.Search(ctx, "temperature Madison", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsearch over the wire: %d hits, top %q\n", len(hits), hits[0].Title)

	rs, err := cli.SQL(ctx, "SELECT COUNT(*) FROM extracted")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SQL over the wire: %s rows extracted\n", rs.Rows[0][0])

	ans, err := cli.Ask(ctx, "average March temperature Madison", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guided answer: %s\n", ans.Candidates[0].Form)

	// 3. Deadlines are server-enforced: a 1ns budget expires before the
	// scan finishes, and the typed error comes back over the wire.
	shortCtx, cancel := context.WithTimeout(ctx, time.Nanosecond)
	_, err = cli.SQL(shortCtx, "SELECT * FROM extracted")
	cancel()
	fmt.Printf("1ns-deadline query refused: %v\n", err)

	h, err := cli.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("health: %d rows, served %d, shed %d\n", h.ExtractedRows, h.Served, h.Shed)

	// 4. Graceful drain: SIGTERM (what an orchestrator sends) makes the
	// daemon stop accepting, finish in-flight work, and checkpoint.
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	if err := <-done; err != nil {
		log.Fatal(err)
	}

	// 5. Second life: same directory, zero-write reopen.
	go func() { done <- server.RunDaemon(cfg) }()
	addr = (<-addrCh).String()
	cli2, err := server.Dial(addr, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	h2, err := cli2.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsecond life: %d rows back, %d indexes loaded from checkpoint (0 rebuilt: %v)\n",
		h2.ExtractedRows, h2.IndexesLoaded, h2.IndexesRebuilt == 0)
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndone: both lives drained and closed cleanly")
}
