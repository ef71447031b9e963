package rdbms

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// WALStore is the directory-like substrate a segmented WAL lives on: a
// set of numbered segment devices plus one manifest naming the segments
// that make up the log. It is the PR10 replacement for the single-device
// log: the WAL reclaims space by deleting whole prefix segments in O(1)
// (no copy-down) and replaces the old double-slot-header COPYING
// protocol with an atomic manifest swap made durable by a directory
// sync.
//
// Durability contract (modeled on a journaling filesystem):
//   - Segment byte durability is the segment Device's own business
//     (WriteAt + Sync), exactly as before.
//   - Directory metadata — segment creation, segment removal, and the
//     manifest swap — is volatile until SyncDir returns. Metadata
//     commits in order: a crash keeps a PREFIX of the unsynced
//     directory operations (journaled filesystems commit metadata
//     transactions sequentially), never a later one without an earlier
//     one.
//   - WriteManifest is an atomic replace (write-temp + rename): after a
//     crash the manifest is either the old bytes or the new bytes,
//     never a mix and never absent once one has been durable.
type WALStore interface {
	// Segments lists the segment sequence numbers present, ascending.
	Segments() ([]uint64, error)
	// OpenSegment opens segment seq, creating it empty if absent. The
	// creation becomes durable at the next SyncDir.
	OpenSegment(seq uint64) (Device, error)
	// RemoveSegment deletes segment seq; durable at the next SyncDir.
	RemoveSegment(seq uint64) error
	// ReadManifest returns the manifest bytes, or nil when none exists.
	ReadManifest() ([]byte, error)
	// WriteManifest atomically replaces the manifest; durable at the
	// next SyncDir.
	WriteManifest(data []byte) error
	// SyncDir makes every prior OpenSegment creation, RemoveSegment,
	// and WriteManifest durable (fsync of the directory).
	SyncDir() error
	Close() error
}

// --- WAL segment manifest -------------------------------------------------

// walManifestEntry names one segment and the LSN its first byte carries.
type walManifestEntry struct {
	seq   uint64
	start LSN
}

var walManifestMagic = [4]byte{'U', 'W', 'M', '1'}

// encodeWALManifest serializes the ordered segment list. The frame is
// crc-protected; the swap protocol (atomic replace) means a reader never
// sees a torn manifest, but the checksum still catches media corruption.
func encodeWALManifest(entries []walManifestEntry) []byte {
	buf := make([]byte, 0, 12+16*len(entries)+4)
	buf = append(buf, walManifestMagic[:]...)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(entries)))
	buf = append(buf, tmp[:4]...)
	for _, e := range entries {
		binary.LittleEndian.PutUint64(tmp[:], e.seq)
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(e.start))
		buf = append(buf, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], crc32.ChecksumIEEE(buf))
	return append(buf, tmp[:4]...)
}

func decodeWALManifest(data []byte) ([]walManifestEntry, error) {
	if len(data) < 12 || [4]byte(data[0:4]) != walManifestMagic {
		return nil, fmt.Errorf("rdbms: wal manifest missing magic")
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("rdbms: wal manifest checksum mismatch")
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	if len(data) != 12+16*n {
		return nil, fmt.Errorf("rdbms: wal manifest length %d does not match %d entries", len(data), n)
	}
	entries := make([]walManifestEntry, n)
	off := 8
	for i := range entries {
		entries[i].seq = binary.LittleEndian.Uint64(data[off : off+8])
		entries[i].start = LSN(binary.LittleEndian.Uint64(data[off+8 : off+16]))
		off += 16
	}
	for i := 1; i < n; i++ {
		if entries[i].seq <= entries[i-1].seq || entries[i].start < entries[i-1].start {
			return nil, fmt.Errorf("rdbms: wal manifest entries out of order at %d", i)
		}
	}
	return entries, nil
}

// --- File-backed store ----------------------------------------------------

const walManifestName = "MANIFEST"

// FileWALStore is a WALStore over an operating-system directory:
// segments are <seq>.seg files, the manifest is MANIFEST replaced via
// write-temp + rename, and SyncDir fsyncs the directory so creations,
// removals, and the rename are durable.
type FileWALStore struct {
	dir string
}

// OpenFileWALStore opens (creating if needed) a directory-backed store.
func OpenFileWALStore(dir string) (*FileWALStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileWALStore{dir: dir}, nil
}

func walSegmentName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }

func (s *FileWALStore) Segments() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (s *FileWALStore) OpenSegment(seq uint64) (Device, error) {
	return OpenFileDevice(filepath.Join(s.dir, walSegmentName(seq)))
}

func (s *FileWALStore) RemoveSegment(seq uint64) error {
	return os.Remove(filepath.Join(s.dir, walSegmentName(seq)))
}

func (s *FileWALStore) ReadManifest() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, walManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

func (s *FileWALStore) WriteManifest(data []byte) error {
	tmp := filepath.Join(s.dir, walManifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	// fsync the temp file BEFORE the rename: rename-then-crash must never
	// install a manifest whose bytes were still in the page cache.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, walManifestName))
}

func (s *FileWALStore) SyncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (s *FileWALStore) Close() error { return nil }

// --- In-memory crash-simulating store -------------------------------------

// memDirOpKind enumerates the directory-metadata mutations a MemWALStore
// holds volatile until SyncDir.
type memDirOpKind uint8

const (
	memDirCreate memDirOpKind = iota
	memDirRemove
	memDirManifest
)

type memDirOp struct {
	kind     memDirOpKind
	seq      uint64
	manifest []byte
	dev      *MemDevice
}

// MemWALStore is an in-memory WALStore modeling a crash-prone
// journaling filesystem: segment bytes follow each MemDevice's own
// durability rules, while directory metadata (creations, removals, the
// manifest swap) is volatile until SyncDir and commits IN ORDER — a
// crash keeps a prefix of the unsynced directory operations, so a
// manifest naming a segment can never survive a crash that lost the
// segment's creation.
type MemWALStore struct {
	mu sync.Mutex

	// applied is what the process observes; durable is what a crash
	// rewinds to; pending is the ordered metadata ops between them.
	segs        map[uint64]*MemDevice
	manifest    []byte
	durSegs     map[uint64]*MemDevice
	durManifest []byte
	pending     []memDirOp
}

// NewMemWALStore returns an empty in-memory store.
func NewMemWALStore() *MemWALStore {
	return &MemWALStore{
		segs:    map[uint64]*MemDevice{},
		durSegs: map[uint64]*MemDevice{},
	}
}

func (s *MemWALStore) Segments() ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.segs))
	for seq := range s.segs {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (s *MemWALStore) OpenSegment(seq uint64) (Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if dev, ok := s.segs[seq]; ok {
		return dev, nil
	}
	dev := NewMemDevice()
	s.segs[seq] = dev
	s.pending = append(s.pending, memDirOp{kind: memDirCreate, seq: seq, dev: dev})
	return dev, nil
}

func (s *MemWALStore) RemoveSegment(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.segs[seq]; !ok {
		return fmt.Errorf("rdbms: wal segment %d does not exist", seq)
	}
	delete(s.segs, seq)
	s.pending = append(s.pending, memDirOp{kind: memDirRemove, seq: seq})
	return nil
}

func (s *MemWALStore) ReadManifest() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return nil, nil
	}
	return append([]byte(nil), s.manifest...), nil
}

func (s *MemWALStore) WriteManifest(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := append([]byte(nil), data...)
	s.manifest = cp
	s.pending = append(s.pending, memDirOp{kind: memDirManifest, manifest: cp})
	return nil
}

func (s *MemWALStore) SyncDir() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitPrefixLocked(len(s.pending))
	s.pending = nil
	return nil
}

// commitPrefixLocked replays the first n pending directory ops onto the
// durable image.
func (s *MemWALStore) commitPrefixLocked(n int) {
	for _, op := range s.pending[:n] {
		switch op.kind {
		case memDirCreate:
			s.durSegs[op.seq] = op.dev
		case memDirRemove:
			delete(s.durSegs, op.seq)
		case memDirManifest:
			s.durManifest = op.manifest
		}
	}
}

func (s *MemWALStore) Close() error { return nil }

// DiskBytes sums the applied sizes of all present segments — the
// on-disk footprint of the log (space-bound tests).
func (s *MemWALStore) DiskBytes() int64 {
	s.mu.Lock()
	devs := make([]*MemDevice, 0, len(s.segs))
	for _, dev := range s.segs {
		devs = append(devs, dev)
	}
	s.mu.Unlock()
	var total int64
	for _, dev := range devs {
		n, _ := dev.Size()
		total += n
	}
	return total
}
