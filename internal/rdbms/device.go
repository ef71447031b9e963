package rdbms

import (
	"io"
	"os"
	"sync"
)

// Device is the durable byte store under a pager or WAL: the narrow
// interface where writes become (or fail to become) persistent. Both
// on-disk databases (FileDevice) and the crash-simulation harness
// (MemDevice) implement it, so the engine above — DevicePager frames,
// WAL records — behaves identically against real files and simulated
// crash-prone disks.
//
// Durability contract:
//   - WriteAt data is volatile until Sync returns: a crash may keep any
//     subset of unsynced writes (they hit the device cache in order, but
//     writeback is reordered), and may tear the most recent one.
//   - Sync makes all previously written bytes durable.
//   - Truncate is durable by itself (truncate + sync): callers rely on a
//     truncation never being reordered after later writes, which is how
//     the WAL guarantees records from a previous log generation cannot
//     resurface once the log has been reset.
type Device interface {
	// ReadAt fills p from offset off. Reads beyond the current size are
	// zero-filled (the page layer treats never-written space as blank).
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt stores p at offset off, extending the device as needed.
	WriteAt(p []byte, off int64) (int, error)
	// Size returns the current device size in bytes.
	Size() (int64, error)
	// Sync forces all written bytes to stable storage.
	Sync() error
	// Truncate resizes the device and makes the truncation durable.
	Truncate(size int64) error
	Close() error
}

// FileDevice is a Device over an operating-system file.
type FileDevice struct {
	f *os.File
}

// OpenFileDevice opens (creating if needed) a file-backed device.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileDevice{f: f}, nil
}

func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) {
	n, err := d.f.ReadAt(p, off)
	if err == io.EOF {
		// Zero-fill past EOF: a crash-truncated file reads as blank space.
		for i := n; i < len(p); i++ {
			p[i] = 0
		}
		return len(p), nil
	}
	return n, err
}

func (d *FileDevice) WriteAt(p []byte, off int64) (int, error) { return d.f.WriteAt(p, off) }

func (d *FileDevice) Size() (int64, error) {
	st, err := d.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (d *FileDevice) Sync() error { return d.f.Sync() }

// Truncate shrinks (or grows) the file and syncs, so the truncation is
// ordered before any subsequent write.
func (d *FileDevice) Truncate(size int64) error {
	if err := d.f.Truncate(size); err != nil {
		return err
	}
	return d.f.Sync()
}

func (d *FileDevice) Close() error { return d.f.Close() }

// memWrite is one unsynced write held in a MemDevice's volatile cache.
type memWrite struct {
	off  int64
	data []byte
}

// MemDevice is an in-memory Device that models a crash-prone disk: it
// tracks the durable image (what survives a crash) separately from the
// applied image (what the process observes), with every write volatile
// until Sync. The tests' Crash (fault_test.go) discards or partially
// applies the unsynced writes, after which the device can be handed to a
// fresh pager/WAL to simulate a post-crash reopen.
type MemDevice struct {
	mu      sync.Mutex
	durable []byte
	applied []byte
	pending []memWrite
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range p {
		p[i] = 0
	}
	if off < int64(len(d.applied)) {
		copy(p, d.applied[off:])
	}
	return len(p), nil
}

func (d *MemDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.applyLocked(off, p)
	d.pending = append(d.pending, memWrite{off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

// growSlice extends b to need bytes with amortized doubling, so the
// append-heavy WAL path does not reallocate the whole device per write.
func growSlice(b []byte, need int64) []byte {
	if need <= int64(len(b)) {
		return b
	}
	if need <= int64(cap(b)) {
		return b[:need]
	}
	grown := make([]byte, need, 2*need)
	copy(grown, b)
	return grown
}

func (d *MemDevice) applyLocked(off int64, p []byte) {
	d.applied = growSlice(d.applied, off+int64(len(p)))
	copy(d.applied[off:], p)
}

func (d *MemDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.applied)), nil
}

// Sync replays the pending writes onto the durable image — O(unsynced
// bytes), not O(device size), since a hot commit path syncs after every
// small flush.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.pending {
		d.durable = growSlice(d.durable, w.off+int64(len(w.data)))
		copy(d.durable[w.off:], w.data)
	}
	d.pending = nil
	return nil
}

// Truncate resizes and, per the Device contract, is durable by itself.
func (d *MemDevice) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size <= int64(len(d.applied)) {
		d.applied = d.applied[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, d.applied)
		d.applied = grown
	}
	d.durable = append(d.durable[:0], d.applied...)
	d.pending = nil
	return nil
}

func (d *MemDevice) Close() error { return nil }
