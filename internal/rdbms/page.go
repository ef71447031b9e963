package rdbms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 4096

// PageID identifies a page within the database file.
type PageID uint32

// InvalidPage is the nil page id.
const InvalidPage PageID = 0xFFFFFFFF

// RID locates a row: page and slot.
type RID struct {
	Page PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Pager provides page-granular storage; implementations are an in-memory
// array (for tests and benchmarks) and a real file.
type Pager interface {
	// ReadPage fills buf (len PageSize) with page id's contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf as page id's contents.
	WritePage(id PageID, buf []byte) error
	// Allocate extends the store by one page and returns its id.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() PageID
	// Sync flushes to stable storage.
	Sync() error
	Close() error
}

// MemPager is an in-memory Pager.
type MemPager struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() *MemPager { return &MemPager{} }

func (m *MemPager) ReadPage(id PageID, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("rdbms: read of unallocated page %d", id)
	}
	copy(buf, m.pages[id])
	return nil
}

func (m *MemPager) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("rdbms: write of unallocated page %d", id)
	}
	copy(m.pages[id], buf)
	return nil
}

func (m *MemPager) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1), nil
}

func (m *MemPager) NumPages() PageID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return PageID(len(m.pages))
}

func (m *MemPager) Sync() error  { return nil }
func (m *MemPager) Close() error { return nil }

// On durable devices every page is stored as a frame: an 8-byte header
// of [crc32(payload) u32][pageID u32] followed by the PageSize payload.
// The checksum detects corruption (bit rot, torn page writes, software
// bugs) at read time instead of silently decoding garbage, and the
// embedded page id catches misdirected writes. An all-zero frame is a
// valid blank page: it is what an allocated-but-never-synced page reads
// as after a crash, and recovery rewrites such pages from the log.
const (
	pageFrameHeader = 8
	pageFrameSize   = PageSize + pageFrameHeader
)

// ErrPageChecksum reports a page whose stored checksum does not match its
// contents — the database file is corrupt at that page.
var ErrPageChecksum = errors.New("rdbms: page checksum mismatch")

// DevicePager stores checksummed page frames on a Device. It is the
// durable Pager: file-backed databases use it over a FileDevice, and the
// crash-recovery harness uses it over a MemDevice (optionally wrapped in
// a FaultDevice).
type DevicePager struct {
	mu    sync.Mutex
	dev   Device
	n     PageID
	frame []byte // scratch frame buffer, guarded by mu
}

// NewDevicePager opens a pager over dev. A partial trailing frame (from a
// crash-torn allocation) is ignored; the page count covers whole frames.
func NewDevicePager(dev Device) (*DevicePager, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	return &DevicePager{
		dev:   dev,
		n:     PageID(size / pageFrameSize),
		frame: make([]byte, pageFrameSize),
	}, nil
}

// OpenFilePager opens (creating if needed) a page file.
func OpenFilePager(path string) (*DevicePager, error) {
	dev, err := OpenFileDevice(path)
	if err != nil {
		return nil, err
	}
	return NewDevicePager(dev)
}

func (p *DevicePager) ReadPage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id >= p.n {
		return fmt.Errorf("rdbms: read of unallocated page %d", id)
	}
	if _, err := p.dev.ReadAt(p.frame, int64(id)*pageFrameSize); err != nil {
		return err
	}
	payload := p.frame[pageFrameHeader:]
	if allZero(p.frame) {
		// Blank page: allocated but never durably written.
		copy(buf[:PageSize], payload)
		return nil
	}
	wantCRC := binary.LittleEndian.Uint32(p.frame[0:4])
	wantID := binary.LittleEndian.Uint32(p.frame[4:8])
	if wantID != uint32(id) {
		return fmt.Errorf("%w: page %d frame carries id %d", ErrPageChecksum, id, wantID)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return fmt.Errorf("%w: page %d", ErrPageChecksum, id)
	}
	copy(buf[:PageSize], payload)
	return nil
}

func (p *DevicePager) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id >= p.n {
		return fmt.Errorf("rdbms: write of unallocated page %d", id)
	}
	binary.LittleEndian.PutUint32(p.frame[0:4], crc32.ChecksumIEEE(buf[:PageSize]))
	binary.LittleEndian.PutUint32(p.frame[4:8], uint32(id))
	copy(p.frame[pageFrameHeader:], buf[:PageSize])
	_, err := p.dev.WriteAt(p.frame, int64(id)*pageFrameSize)
	return err
}

func (p *DevicePager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.n
	zero := make([]byte, pageFrameSize)
	if _, err := p.dev.WriteAt(zero, int64(id)*pageFrameSize); err != nil {
		return InvalidPage, err
	}
	p.n++
	return id, nil
}

func (p *DevicePager) NumPages() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

func (p *DevicePager) Sync() error  { return p.dev.Sync() }
func (p *DevicePager) Close() error { return p.dev.Close() }

// VerifyChecksums reads every page, returning the first checksum error.
// Recovery tooling and the crash harness use it to assert the database
// file is clean end to end.
func (p *DevicePager) VerifyChecksums() error {
	buf := make([]byte, PageSize)
	for id := PageID(0); id < p.NumPages(); id++ {
		if err := p.ReadPage(id, buf); err != nil {
			return err
		}
	}
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Slotted page layout:
//   [0:2)   numSlots
//   [2:4)   freeStart (offset where the next record payload region begins,
//           growing down from PageSize; 0 on a blank page reads as PageSize)
//   [4:8)   next page id in the heap chain (InvalidPage terminates)
//   [8:16)  pageLSN: the LSN of the last logged mutation applied to this
//           page. Stamped under the page's write latch, which serializes
//           the mutation itself, so per-page LSNs
//           are monotonic and the page content is always exactly "every
//           logged record with LSN <= pageLSN applied". Recovery redo is
//           gated on it (apply a record only when pageLSN < rec.LSN),
//           which makes replay idempotent physical redo, and the buffer
//           pool flushes the WAL only up to pageLSN before writing the
//           page back (the precise WAL rule).
//   then numSlots slot entries of 4 bytes each: [offset uint16, len uint16].
//   A slot with len == 0xFFFF is a tombstone (deleted).
//
// Records are written from the end of the page toward the slot array.

const (
	pageHeaderSize = 16
	slotSize       = 4
	tombstoneLen   = 0xFFFF
)

// pageLSNOf reads the page LSN directly from a page buffer (used by the
// buffer pool, which holds raw frame bytes, without building a
// slottedPage).
func pageLSNOf(data []byte) LSN {
	return LSN(binary.LittleEndian.Uint64(data[8:16]))
}

type slottedPage struct {
	data []byte // PageSize bytes
}

// newSlottedPage views data as a slotted page without writing it, so a
// reader holding only a shared latch may build one.
func newSlottedPage(data []byte) *slottedPage { return &slottedPage{data: data} }

func (p *slottedPage) numSlots() uint16     { return binary.LittleEndian.Uint16(p.data[0:2]) }
func (p *slottedPage) setNumSlots(n uint16) { binary.LittleEndian.PutUint16(p.data[0:2], n) }
func (p *slottedPage) freeStart() uint16 {
	if v := binary.LittleEndian.Uint16(p.data[2:4]); v != 0 {
		return v
	}
	return PageSize
}
func (p *slottedPage) setFreeStart(v uint16) { binary.LittleEndian.PutUint16(p.data[2:4], v) }
func (p *slottedPage) next() PageID          { return PageID(binary.LittleEndian.Uint32(p.data[4:8])) }
func (p *slottedPage) setNext(id PageID)     { binary.LittleEndian.PutUint32(p.data[4:8], uint32(id)) }
func (p *slottedPage) pageLSN() LSN          { return LSN(binary.LittleEndian.Uint64(p.data[8:16])) }
func (p *slottedPage) setPageLSN(lsn LSN)    { binary.LittleEndian.PutUint64(p.data[8:16], uint64(lsn)) }

func (p *slottedPage) slot(i uint16) (off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(p.data[base : base+2]),
		binary.LittleEndian.Uint16(p.data[base+2 : base+4])
}

func (p *slottedPage) setSlot(i uint16, off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(p.data[base:base+2], off)
	binary.LittleEndian.PutUint16(p.data[base+2:base+4], length)
}

// freeSpace returns usable bytes for a new record (including its slot).
func (p *slottedPage) freeSpace() int {
	slotEnd := pageHeaderSize + int(p.numSlots())*slotSize
	return int(p.freeStart()) - slotEnd
}

// reclaimable returns the usable bytes compaction would leave free.
func (p *slottedPage) reclaimable() int {
	return PageSize - pageHeaderSize - int(p.numSlots())*slotSize - p.liveBytes()
}

// liveBytes sums the payload bytes of live records.
func (p *slottedPage) liveBytes() int {
	total := 0
	for i := uint16(0); i < p.numSlots(); i++ {
		if _, l := p.slot(i); l != tombstoneLen {
			total += int(l)
		}
	}
	return total
}

// compact rewrites every live payload contiguously at the end of the
// page, reclaiming the space of deleted and superseded records. Slot
// indexes — and therefore RIDs — are preserved; only payload offsets
// move. Crash recovery depends on this: undo must be able to restore a
// before-image at its original RID even on a page fragmented by churn.
func (p *slottedPage) compact() {
	n := p.numSlots()
	free := uint16(PageSize)
	scratch := make([]byte, 0, PageSize)
	type placed struct {
		slot   uint16
		length uint16
		at     int // offset into scratch
	}
	var recs []placed
	for i := uint16(0); i < n; i++ {
		rec, ok := p.read(i)
		if !ok {
			continue
		}
		recs = append(recs, placed{slot: i, length: uint16(len(rec)), at: len(scratch)})
		scratch = append(scratch, rec...)
	}
	for _, r := range recs {
		free -= r.length
		copy(p.data[free:], scratch[r.at:r.at+int(r.length)])
		p.setSlot(r.slot, free, r.length)
	}
	p.setFreeStart(free)
}

// room makes need contiguous free bytes available while keeping reserve
// further bytes reclaimable, compacting the page when the free region alone
// is too small. It never compacts unless success is guaranteed, so callers
// can safely restore slot state on a false return.
func (p *slottedPage) room(need, reserve int) bool {
	if p.freeSpace() >= need+reserve {
		return true
	}
	if p.reclaimable() < need+reserve {
		return false
	}
	if p.freeSpace() < need {
		p.compact()
	}
	return true
}

// slotReserve is one reserved slot (see HeapFile.reserve) and the payload
// bytes its owner's undo may need back there.
type slotReserve struct {
	slot  uint16
	bytes int
}

// reservations are one page's reserved slots, and how many of them
// reserve any bytes (a row its owner inserted reserves none).
type reservations struct {
	slots []slotReserve
	sized int
}

// holds reports whether slot s is reserved.
func (res reservations) holds(s uint16) bool {
	for _, r := range res.slots {
		if r.slot == s {
			return true
		}
	}
	return false
}

// shortfall sums, over the reserved slots in res, the bytes
// each lacks of its reservation: max(0, reserved - current length), a
// tombstone counting as 0 and slot at counting as atLen (the length a
// pending write gives it).
func (p *slottedPage) shortfall(res reservations, at uint16, atLen int) int {
	if res.sized == 0 {
		return 0
	}
	total := 0
	for _, r := range res.slots {
		if r.bytes == 0 {
			continue
		}
		l := atLen
		if r.slot != at {
			rec, _ := p.read(r.slot)
			l = len(rec)
		}
		if r.bytes > l {
			total += r.bytes - l
		}
	}
	return total
}

// insert places rec in the page and returns its slot, or false if it does
// not fit even after compaction. The slots in res belong to live
// transactions: none is reused, and the bytes they lack stay reclaimable.
func (p *slottedPage) insert(rec []byte, res reservations) (uint16, bool) {
	if len(rec) > tombstoneLen-1 {
		return 0, false
	}
	// Prefer a tombstone slot, to bound slot array growth under churn.
	slot := p.numSlots()
	newSlot := true
	for i := uint16(0); i < p.numSlots(); i++ {
		if _, l := p.slot(i); l == tombstoneLen && !res.holds(i) {
			slot, newSlot = i, false
			break
		}
	}
	need := len(rec)
	if newSlot {
		need += slotSize
	}
	if !p.room(need, p.shortfall(res, slot, len(rec))) {
		return 0, false
	}
	newStart := p.freeStart() - uint16(len(rec))
	copy(p.data[newStart:], rec)
	p.setFreeStart(newStart)
	p.setSlot(slot, newStart, uint16(len(rec)))
	if newSlot {
		p.setNumSlots(slot + 1)
	}
	return slot, true
}

// read returns the record in slot i, or false for tombstones/bad slots.
func (p *slottedPage) read(i uint16) ([]byte, bool) {
	if i >= p.numSlots() {
		return nil, false
	}
	off, l := p.slot(i)
	if l == tombstoneLen {
		return nil, false
	}
	return p.data[off : off+l], true
}

// del tombstones slot i.
func (p *slottedPage) del(i uint16) bool {
	if i >= p.numSlots() {
		return false
	}
	off, l := p.slot(i)
	if l == tombstoneLen {
		return false
	}
	p.setSlot(i, off, tombstoneLen)
	return true
}

// update replaces slot i's record. If the new record fits in the old
// record's space it is updated in place; otherwise new payload space is
// taken, leaving the bytes the reserved slots in res lack reclaimable.
// Returns false if it cannot fit.
func (p *slottedPage) update(i uint16, rec []byte, res reservations) bool {
	if i >= p.numSlots() {
		return false
	}
	off, l := p.slot(i)
	if l == tombstoneLen {
		return false
	}
	if len(rec) <= int(l) {
		copy(p.data[off:], rec)
		p.setSlot(i, off, uint16(len(rec)))
		return true
	}
	if reserve := p.shortfall(res, i, len(rec)); p.freeSpace() < len(rec)+reserve {
		// The old copy's bytes count as reclaimable once the slot is
		// tombstoned; room only compacts when it will succeed, so the slot
		// can be restored intact on failure.
		p.setSlot(i, 0, tombstoneLen)
		if !p.room(len(rec), reserve) {
			p.setSlot(i, off, l)
			return false
		}
	}
	newStart := p.freeStart() - uint16(len(rec))
	copy(p.data[newStart:], rec)
	p.setFreeStart(newStart)
	p.setSlot(i, newStart, uint16(len(rec)))
	return true
}
