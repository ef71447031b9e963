package filestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestAppendRead(t *testing.T) {
	s := New(0)
	id1, err := s.Append([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Append([]byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(id1); err != nil || string(got) != "hello" {
		t.Fatalf("Read id1 = %q, %v", got, err)
	}
	if got, err := s.Read(id2); err != nil || string(got) != "world" {
		t.Fatalf("Read id2 = %q, %v", got, err)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestReadOutOfRange(t *testing.T) {
	s := New(0)
	if _, err := s.Read(RecordID{Segment: 5}); err == nil {
		t.Fatal("expected segment range error")
	}
	if _, err := s.Read(RecordID{Offset: 100}); err == nil {
		t.Fatal("expected offset range error")
	}
}

func TestSegmentRollover(t *testing.T) {
	s := New(64)
	for i := 0; i < 20; i++ {
		if _, err := s.Append([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Segments() < 2 {
		t.Fatalf("expected rollover, segments = %d", s.Segments())
	}
	n := 0
	err := s.Scan(func(id RecordID, p []byte) bool {
		if string(p) != "0123456789" {
			t.Errorf("record %v = %q", id, p)
		}
		n++
		return true
	})
	if err != nil || n != 20 {
		t.Fatalf("scan: n=%d err=%v", n, err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	s := New(0)
	// Use a fake giant length via the API guard (can't allocate 256MiB+1 in
	// a unit test comfortably, so check the boundary logic with a crafted
	// slice header is out; just verify the limit constant is enforced by a
	// smaller-scale direct call).
	big := make([]byte, maxRecordBytes+1)
	if _, err := s.Append(big); err == nil {
		t.Fatal("expected oversize rejection")
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		s.Append([]byte{byte(i)})
	}
	n := 0
	s.Scan(func(RecordID, []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop at %d", n)
	}
}

func TestPersistOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := New(128)
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, string(bytes.Repeat([]byte{'x'}, i%30))))
		want = append(want, p)
		if _, err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Persist(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, 128)
	if err != nil {
		t.Fatal(err)
	}
	if re.Count() != 50 {
		t.Fatalf("reopened count = %d", re.Count())
	}
	i := 0
	re.Scan(func(id RecordID, p []byte) bool {
		if !bytes.Equal(p, want[i]) {
			t.Errorf("record %d = %q, want %q", i, p, want[i])
		}
		i++
		return true
	})
	if i != 50 {
		t.Fatalf("scanned %d records", i)
	}
}

func TestOpenTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s := New(0)
	s.Append([]byte("complete-1"))
	s.Append([]byte("complete-2"))
	s.Append([]byte("will-be-torn"))
	if err := s.Persist(dir); err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the tail of the only segment to simulate a crash
	// mid-append.
	name := filepath.Join(dir, "seg-000000.dat")
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if re.Count() != 2 {
		t.Fatalf("torn record should be dropped; count = %d", re.Count())
	}
	// Appends continue to work after recovery.
	if _, err := re.Append([]byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	if re.Count() != 3 {
		t.Fatalf("post-crash count = %d", re.Count())
	}
}

func TestOpenCorruptMiddleRecordFails(t *testing.T) {
	dir := t.TempDir()
	s := New(0)
	s.Append([]byte("first-record-payload"))
	s.Append([]byte("second-record-payload"))
	if err := s.Persist(dir); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "seg-000000.dat")
	data, _ := os.ReadFile(name)
	data[10] ^= 0xFF // flip a payload byte of the first record
	os.WriteFile(name, data, 0o644)
	if _, err := Open(dir, 0); err == nil {
		t.Fatal("corruption in a non-final record must fail Open")
	}
}

func TestChecksumDetectsInMemoryCorruption(t *testing.T) {
	s := New(0)
	id, _ := s.Append([]byte("payload"))
	// Corrupt the stored payload directly.
	s.segments[0][headerSize] ^= 0xFF
	if _, err := s.Read(id); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read after corruption = %v, want ErrCorrupt", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := New(0)
	id, err := s.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty record = %v, %v", got, err)
	}
}

func TestValidatePrefixTrailingGarbage(t *testing.T) {
	var buf []byte
	var hdr [8]byte
	payload := []byte("ok")
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crcOf(payload))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	buf = append(buf, 0x01, 0x02, 0x03) // garbage < header size
	if _, _, _, err := validatePrefix(buf, false); err == nil {
		t.Fatal("trailing garbage must fail strict validation")
	}
	valid, n, _, err := validatePrefix(buf, true)
	if err != nil || n != 1 || valid != 8+len(payload) {
		t.Fatalf("lenient validation: valid=%d n=%d err=%v", valid, n, err)
	}
}

func crcOf(p []byte) uint32 {
	s := New(0)
	s.Append(p)
	return binary.LittleEndian.Uint32(s.segments[0][4:8])
}

// Property: append N arbitrary payloads, scan returns them in order intact.
func TestAppendScanProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		s := New(256)
		for _, p := range payloads {
			if _, err := s.Append(p); err != nil {
				return false
			}
		}
		i := 0
		err := s.Scan(func(id RecordID, p []byte) bool {
			if !bytes.Equal(p, payloads[i]) {
				return false
			}
			i++
			return true
		})
		return err == nil && i == len(payloads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppendScan(t *testing.T) {
	s := New(1024)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				s.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
			}
			done <- true
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if s.Count() != 800 {
		t.Fatalf("Count = %d", s.Count())
	}
	n := 0
	if err := s.Scan(func(RecordID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 800 {
		t.Fatalf("scanned %d", n)
	}
}
