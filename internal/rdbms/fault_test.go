package rdbms

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Fault injection for durability testing. Faults are injected at the
// Device layer — the byte store beneath the Pager and WAL interfaces —
// because that is where real failures happen: a torn write leaves real
// half-written bytes (an invalid page frame checksum, a truncated WAL
// record) rather than a simulation of one, and a dropped sync leaves
// real bytes in the volatile cache for a later crash to claim.
// NewFaultPager and NewFaultWAL assemble the fault-carrying Pager and
// WAL the engine consumes, so a test injects by construction:
//
//	inj := NewFaultInjector()
//	inj.Schedule(17, FaultCrash) // kill the process at the 17th I/O
//	pager, _ := NewFaultPager(pageDev, inj)
//	wal, _ := NewFaultWAL(walStore, inj)
//	db, _ := Open(pager, wal, Options{})
//
// Mutating device operations (write, sync, truncate) share one global
// op counter across every device wrapped with the same injector, so
// "the Nth I/O" ranges over the whole database, pager and WAL together
// — the crash-recovery property suite enumerates every such point.

// ErrInjected is the error returned by operations the injector fails.
var ErrInjected = errors.New("rdbms: injected I/O fault")

// CrashSignal is the panic value thrown when a scheduled FaultCrash (or
// the crash following a FaultTornWrite) fires: it simulates the process
// dying at that exact I/O. Harnesses recover() it, apply
// MemDevice.Crash to discard unsynced bytes, and reopen.
type CrashSignal struct {
	Op int64 // the global I/O index at which the crash fired
}

// FaultKind enumerates what the injector can do to an I/O operation.
type FaultKind uint8

const (
	// FaultNone lets the operation through.
	FaultNone FaultKind = iota
	// FaultError fails the operation with ErrInjected, without side
	// effects; the engine sees a transient I/O error.
	FaultError
	// FaultDropSync makes a Sync report success without persisting — a
	// lying disk cache. Scheduled on a non-sync operation it degrades to
	// FaultError.
	FaultDropSync
	// FaultTornWrite applies only a prefix of the write's bytes and then
	// crashes (panics with CrashSignal): a write torn by power loss.
	// Scheduled on a non-write operation it degrades to FaultCrash.
	FaultTornWrite
	// FaultCrash panics with CrashSignal before the operation executes.
	FaultCrash
)

// FaultInjector schedules faults by global I/O index across every device
// wrapped with it. It also counts operations, so a fault-free dry run
// measures how many injection points a workload has.
//
// Once a scheduled crash fires, the injector considers the process dead:
// every subsequent I/O through it also crashes (panics with the original
// CrashSignal op). With a single-threaded workload that changes nothing
// — the first panic unwinds the whole run — but with concurrent
// committers and checkpointers it models reality: the machine does not
// keep serving other goroutines' I/O after the power cut.
type FaultInjector struct {
	mu     sync.Mutex
	ops    int64
	sched  map[int64]FaultKind
	dead   bool
	deadOp int64
}

// NewFaultInjector returns an injector with no faults scheduled.
func NewFaultInjector() *FaultInjector {
	return &FaultInjector{sched: map[int64]FaultKind{}}
}

// Schedule arms fault k at the op-th mutating I/O (0-based).
func (fi *FaultInjector) Schedule(op int64, k FaultKind) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.sched[op] = k
}

// Ops returns the number of mutating I/O operations seen so far.
func (fi *FaultInjector) Ops() int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.ops
}

// step consumes one op index and returns the fault armed for it.
func (fi *FaultInjector) step() (int64, FaultKind) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.dead {
		return fi.deadOp, FaultCrash
	}
	idx := fi.ops
	fi.ops++
	k := fi.sched[idx]
	if k == FaultCrash || k == FaultTornWrite {
		fi.dead = true
		fi.deadOp = idx
	}
	return idx, k
}

// Crashed reports whether a scheduled crash has fired (and at which op).
func (fi *FaultInjector) Crashed() (int64, bool) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.deadOp, fi.dead
}

// FaultDevice wraps a Device, applying the injector's schedule to every
// mutating operation. Reads pass through uncounted: they cannot affect
// durability, and keeping them out of the op space keeps injection-point
// enumeration tight.
//
// tearable marks devices whose on-disk format tolerates torn writes. The
// WAL does (its record framing detects and truncates a torn tail); page
// frames do not — like production engines, the pager assumes power-fail
// atomicity of a page-sized write (real systems buy this with sector
// atomicity or full-page writes), and its checksums exist to detect the
// assumption breaking, not to recover from it. A torn write scheduled on
// a non-tearable device therefore degrades to a plain crash.
type FaultDevice struct {
	inner    Device
	inj      *FaultInjector
	tearable bool
}

// NewFaultDevice wraps dev with fault injection.
func NewFaultDevice(dev Device, inj *FaultInjector) *FaultDevice {
	return &FaultDevice{inner: dev, inj: inj}
}

func (fd *FaultDevice) ReadAt(p []byte, off int64) (int, error) { return fd.inner.ReadAt(p, off) }
func (fd *FaultDevice) Size() (int64, error)                    { return fd.inner.Size() }
func (fd *FaultDevice) Close() error                            { return fd.inner.Close() }

func (fd *FaultDevice) WriteAt(p []byte, off int64) (int, error) {
	idx, k := fd.inj.step()
	switch k {
	case FaultError, FaultDropSync:
		return 0, fmt.Errorf("%w (write, op %d)", ErrInjected, idx)
	case FaultTornWrite:
		if fd.tearable {
			fd.inner.WriteAt(p[:len(p)/2], off)
		}
		panic(CrashSignal{Op: idx})
	case FaultCrash:
		panic(CrashSignal{Op: idx})
	}
	return fd.inner.WriteAt(p, off)
}

func (fd *FaultDevice) Sync() error {
	idx, k := fd.inj.step()
	switch k {
	case FaultError:
		return fmt.Errorf("%w (sync, op %d)", ErrInjected, idx)
	case FaultDropSync:
		return nil // lie: report durability without providing it
	case FaultTornWrite, FaultCrash:
		panic(CrashSignal{Op: idx})
	}
	return fd.inner.Sync()
}

func (fd *FaultDevice) Truncate(size int64) error {
	idx, k := fd.inj.step()
	switch k {
	case FaultError, FaultDropSync:
		return fmt.Errorf("%w (truncate, op %d)", ErrInjected, idx)
	case FaultTornWrite, FaultCrash:
		panic(CrashSignal{Op: idx})
	}
	return fd.inner.Truncate(size)
}

// NewFaultPager returns a checksummed Pager over dev whose I/O passes
// through the injector — the Pager the engine opens when a test wants
// page-side faults.
func NewFaultPager(dev Device, inj *FaultInjector) (*DevicePager, error) {
	return NewDevicePager(NewFaultDevice(dev, inj))
}

// NewFaultWAL returns a WAL over store whose I/O — segment writes and
// syncs as well as the directory-level operations (segment removal,
// manifest swap, directory sync) — passes through the injector: the WAL
// the engine opens when a test wants log-side faults. Segment devices
// are tearable: torn writes leave real half-frames for the open-time
// tail truncation to clean up.
func NewFaultWAL(store WALStore, inj *FaultInjector) (*WAL, error) {
	return NewWALOn(NewFaultWALStore(store, inj))
}

// FaultWALStore wraps a WALStore so that its mutating directory
// operations (manifest swap, segment removal, directory sync) and every
// byte of segment I/O pass through a FaultInjector — the store the
// crash suites open when they want the segment-rotation and
// manifest-swap protocols killed at every step. Segment devices come
// back tearable: the WAL's record framing detects and truncates torn
// tails.
type FaultWALStore struct {
	inner WALStore
	inj   *FaultInjector
}

// NewFaultWALStore wraps store with fault injection.
func NewFaultWALStore(store WALStore, inj *FaultInjector) *FaultWALStore {
	return &FaultWALStore{inner: store, inj: inj}
}

func (s *FaultWALStore) Segments() ([]uint64, error)   { return s.inner.Segments() }
func (s *FaultWALStore) ReadManifest() ([]byte, error) { return s.inner.ReadManifest() }
func (s *FaultWALStore) Close() error                  { return s.inner.Close() }

func (s *FaultWALStore) OpenSegment(seq uint64) (Device, error) {
	dev, err := s.inner.OpenSegment(seq)
	if err != nil {
		return nil, err
	}
	return &FaultDevice{inner: dev, inj: s.inj, tearable: true}, nil
}

func (s *FaultWALStore) RemoveSegment(seq uint64) error {
	idx, k := s.inj.step()
	switch k {
	case FaultError, FaultDropSync:
		return fmt.Errorf("%w (segment remove, op %d)", ErrInjected, idx)
	case FaultTornWrite, FaultCrash:
		panic(CrashSignal{Op: idx})
	}
	return s.inner.RemoveSegment(seq)
}

func (s *FaultWALStore) WriteManifest(data []byte) error {
	idx, k := s.inj.step()
	switch k {
	case FaultError, FaultDropSync:
		return fmt.Errorf("%w (manifest write, op %d)", ErrInjected, idx)
	case FaultTornWrite, FaultCrash:
		panic(CrashSignal{Op: idx})
	}
	return s.inner.WriteManifest(data)
}

func (s *FaultWALStore) SyncDir() error {
	idx, k := s.inj.step()
	switch k {
	case FaultError:
		return fmt.Errorf("%w (dir sync, op %d)", ErrInjected, idx)
	case FaultDropSync:
		return nil // lie: report durability without providing it
	case FaultTornWrite, FaultCrash:
		panic(CrashSignal{Op: idx})
	}
	return s.inner.SyncDir()
}

// Crash simulates power loss: the applied image is rewound to the durable
// image, then each unsynced write independently survives with probability
// 1/2 (writeback reorders freely between barriers). A nil rng drops every
// unsynced write — the adversarial worst case. After Crash the device
// holds exactly the surviving image and has no volatile state.
func (d *MemDevice) Crash(rng *rand.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.applied = append([]byte(nil), d.durable...)
	if rng != nil {
		for _, w := range d.pending {
			if rng.Intn(2) == 0 {
				d.applyLocked(w.off, w.data)
			}
		}
	}
	d.durable = append(d.durable[:0], d.applied...)
	d.pending = nil
}

// Crash simulates power loss: directory metadata rewinds to the durable
// image plus a surviving PREFIX of the unsynced operations (metadata
// journaling commits in order; a nil rng keeps none — the adversarial
// worst case), and every surviving segment device then crashes
// independently under the usual MemDevice write-survival model.
func (s *MemWALStore) Crash(rng *rand.Rand) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := 0
	if rng != nil && len(s.pending) > 0 {
		keep = rng.Intn(len(s.pending) + 1)
	}
	s.commitPrefixLocked(keep)
	s.pending = nil
	s.manifest = s.durManifest
	s.segs = make(map[uint64]*MemDevice, len(s.durSegs))
	for seq, dev := range s.durSegs {
		dev.Crash(rng)
		s.segs[seq] = dev
	}
}
