package server

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/uql"
)

// The drain and crash suites exercise a real unidbd process: TestMain
// re-execs this test binary in "child" mode, where it runs RunDaemon —
// the same code path cmd/unidbd compiles — so SIGTERM and SIGKILL hit an
// actual process with an actual socket and an actual flock on the data
// directory.

func TestMain(m *testing.M) {
	if os.Getenv("UNIDBD_CHILD") == "1" {
		os.Exit(daemonChildMain())
	}
	os.Exit(m.Run())
}

// childCorpus is the corpus shape both the child daemon and the parent's
// in-process reopens use, so reopen checks see the daemon's exact system.
var childCorpus = synth.Config{
	Seed: 7, Cities: 12, People: 4, Filler: 6, MentionsPerPerson: 2,
}

func daemonChildMain() int {
	err := RunDaemon(DaemonConfig{
		Addr:    "127.0.0.1:0",
		DataDir: os.Getenv("UNIDBD_DATA"),
		Cities:  childCorpus.Cities, People: childCorpus.People,
		Filler: childCorpus.Filler, Seed: childCorpus.Seed,
		Workers: 2,
		Server:  Options{DrainTimeout: 5 * time.Second},
		Out:     os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unidbd child:", err)
		return 1
	}
	return 0
}

// daemonProc is a running child daemon plus its captured output.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string

	mu  sync.Mutex
	log strings.Builder
}

func (p *daemonProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// startDaemon re-execs the test binary as a unidbd child over dataDir
// and waits for it to announce its listen address.
func startDaemon(t *testing.T, dataDir string) *daemonProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "UNIDBD_CHILD=1", "UNIDBD_DATA="+dataDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout // interleave; lifecycle lines carry prefixes
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{cmd: cmd}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log.WriteString(line + "\n")
			p.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "unidbd: listening on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	select {
	case p.addr = <-addrCh:
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon never announced its address; output so far:\n%s", p.output())
	}
	return p
}

// wait returns the child's exit code, failing the test if it does not
// exit in time.
func (p *daemonProc) wait(t *testing.T) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("waiting for daemon: %v", err)
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("daemon did not exit; output:\n%s", p.output())
	}
	return -1
}

// hashDBFiles fingerprints every file under the data directory: the
// database files are all a reopen persists, so the zero-write clean
// reopen contract covers the whole directory.
func hashDBFiles(t *testing.T, dataDir string) map[string]string {
	t.Helper()
	hashes := map[string]string{}
	err := filepath.Walk(dataDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return err
		}
		rel, _ := filepath.Rel(dataDir, path)
		hashes[rel] = hex.EncodeToString(h.Sum(nil))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hashes
}

// TestDaemonSIGTERMDrain is the graceful-drain contract end to end:
// SIGTERM under live traffic exits 0 with a clean-drain message, and the
// data directory it leaves behind reopens with zero writes to any file
// in it.
func TestDaemonSIGTERMDrain(t *testing.T) {
	dataDir := t.TempDir()

	// First life: serve mixed traffic, then SIGTERM mid-stream.
	p := startDaemon(t, dataDir)
	cli, err := Dial(p.addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cli.Search(ctx, "temperature", 5); err != nil {
		t.Fatalf("search against daemon: %v", err)
	}
	if _, err := cli.SQL(ctx, "SELECT COUNT(*) FROM extracted"); err != nil {
		t.Fatalf("sql against daemon: %v", err)
	}
	// Traffic still in flight while the signal lands.
	var trafficWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		trafficWG.Add(1)
		go func() {
			defer trafficWG.Done()
			c, err := Dial(p.addr, 5*time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				// Errors are expected once draining begins; the contract
				// under test is the daemon's exit, not these requests.
				if _, err := c.Search(ctx, "population", 3); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p.wait(t); code != 0 {
		t.Fatalf("SIGTERM exit code = %d, want 0; output:\n%s", code, p.output())
	}
	trafficWG.Wait()
	out := p.output()
	if !strings.Contains(out, "drained and closed cleanly") {
		t.Fatalf("no clean-drain message in output:\n%s", out)
	}

	// Second life: the daemon must reopen the data and, doing no writes,
	// leave every file byte-identical on the next clean close.
	before := hashDBFiles(t, dataDir)
	if len(before) == 0 {
		t.Fatal("no database files written by the first life")
	}
	p2 := startDaemon(t, dataDir)
	if !strings.Contains(p2.output(), "reopened=true") {
		t.Fatalf("second life not a reopen; output:\n%s", p2.output())
	}
	cli2, err := Dial(p2.addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cli2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ExtractedRows == 0 {
		t.Fatal("reopen lost the extracted rows")
	}
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p2.wait(t); code != 0 {
		t.Fatalf("second life exit code = %d; output:\n%s", code, p2.output())
	}
	after := hashDBFiles(t, dataDir)
	if len(before) != len(after) {
		t.Fatalf("data file set changed across the reopen cycle: %v -> %v", before, after)
	}
	for name, h := range before {
		if after[name] != h {
			t.Errorf("data file %s rewritten during the zero-write reopen cycle", name)
		}
	}
}

// TestDaemonKill9Durability: every response the daemon acked before
// being SIGKILLed must be durable. A client streams INSERTs recording
// each ack; the process dies mid-traffic; the directory reopens
// in-process (the flock dies with the process) and every acked row must
// be present.
func TestDaemonKill9Durability(t *testing.T) {
	dataDir := t.TempDir()
	p := startDaemon(t, dataDir)

	cli, err := Dial(p.addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var mu sync.Mutex
	var acked []int
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sql := fmt.Sprintf(
				"INSERT INTO extracted VALUES ('kill9-%d', 'probe', 'q', '%d', %d.0, 1.0)",
				i, i, i)
			if _, err := cli.SQL(ctx, sql); err != nil {
				return // the kill severed the connection; unacked, not counted
			}
			mu.Lock()
			acked = append(acked, i)
			mu.Unlock()
		}
	}()

	// Let a batch of acks accumulate, then kill without ceremony.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 20 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if code := p.wait(t); code == 0 {
		t.Fatal("SIGKILLed daemon exited 0")
	}
	mu.Lock()
	final := append([]int(nil), acked...)
	mu.Unlock()
	if len(final) == 0 {
		t.Fatal("no inserts were acked before the kill")
	}

	// Reopen the directory this process — the dead daemon's flock is
	// gone — and audit every acked row.
	corpus, _ := synth.Generate(childCorpus)
	setup := func(s *core.System) error {
		_, err := s.Generate(context.Background(), daemonProgram, uql.Options{})
		return err
	}
	sys, rep, err := core.OpenDir(dataDir, core.Config{Corpus: corpus, Workers: 2}, setup)
	if err != nil {
		t.Fatalf("reopen after kill -9: %v", err)
	}
	defer sys.Close()
	if !rep.Reopened {
		t.Fatal("kill -9 left a directory that did not reopen from disk")
	}
	for _, id := range final {
		rs, err := sys.SQL(ctx, fmt.Sprintf(
			"SELECT value FROM extracted WHERE entity = 'kill9-%d'", id))
		if err != nil {
			t.Fatalf("auditing acked insert %d: %v", id, err)
		}
		if len(rs.Rows) != 1 || rs.Rows[0][0].String() != fmt.Sprintf("%d", id) {
			t.Errorf("acked insert %d lost after kill -9 (rows=%v)", id, rs.Rows)
		}
	}
	t.Logf("all %d acked inserts survived kill -9", len(final))
}
