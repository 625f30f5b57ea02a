package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzIndexDecode hammers the advisory-index decoder with arbitrary
// bytes. The properties under test are the untrusted-input discipline:
// the decoder must never panic, never accept more than maxIndexEntries,
// and a successful decode must re-encode to an equivalent index (the
// format has one canonical meaning). Seeds cover the hostile shapes the
// unit tests check — huge declared counts, truncation, trailing bytes —
// so the fuzzer starts at the interesting boundaries.
func FuzzIndexDecode(f *testing.F) {
	valid := encodeIndex([]object{
		{hash: KeyHash("seed-a"), size: 128, seq: 1},
		{hash: KeyHash("seed-b"), size: 1 << 20, seq: 7},
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("XIDX1"))
	f.Add(valid[:len(valid)-5])
	f.Add(append(append([]byte{}, valid...), 0xFF))
	huge := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(huge[5:9], 0xFFFFFFFF)
	f.Add(huge)
	overCap := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(overCap[5:9], maxIndexEntries+1)
	f.Add(overCap)

	f.Fuzz(func(t *testing.T, raw []byte) {
		idx, err := decodeIndex(raw)
		if err != nil {
			return
		}
		if len(idx) > maxIndexEntries {
			t.Fatalf("decoder accepted %d entries past the cap", len(idx))
		}
		objs := make([]object, 0, len(idx))
		for h, m := range idx {
			objs = append(objs, object{hash: h, size: m.size, seq: m.seq})
		}
		re, err := decodeIndex(encodeIndex(objs))
		if err != nil {
			t.Fatalf("re-encoded index does not decode: %v", err)
		}
		if len(re) != len(idx) {
			t.Fatalf("round trip changed entry count: %d → %d", len(idx), len(re))
		}
		for h, m := range idx {
			if got, ok := re[h]; !ok || got != m {
				t.Fatalf("round trip changed entry %x: %+v → %+v", h[:4], m, got)
			}
		}
		// And the fixed point: decoding canonical bytes of a decoded
		// index must reproduce the same canonical bytes.
		if raw2 := canonicalBytes(re); !bytes.Equal(canonicalBytes(idx), raw2) {
			t.Fatal("canonical re-encoding is not a fixed point")
		}
	})
}

// canonicalBytes re-encodes an index map in sorted-hash order so two
// equivalent maps compare byte-equal.
func canonicalBytes(idx map[[32]byte]indexMeta) []byte {
	objs := make([]object, 0, len(idx))
	for h, m := range idx {
		objs = append(objs, object{hash: h, size: m.size, seq: m.seq})
	}
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && bytes.Compare(objs[j].hash[:], objs[j-1].hash[:]) < 0; j-- {
			objs[j], objs[j-1] = objs[j-1], objs[j]
		}
	}
	return encodeIndex(objs)
}

// FuzzSegmentScan feeds arbitrary bytes to Open as a segment. The header
// walk must never panic, never allocate past the segment's size however
// large a length a header declares, and accept only whole records laid
// end to end. Every record it accepts must then be either served
// byte-exact or, failing verification, quarantined with its bytes; the
// rest of the segment is cut into quarantine.
func FuzzSegmentScan(f *testing.F) {
	valid := appendRecord(nil, KeyHash("a"), []byte("alpha"))
	valid = appendRecord(valid, KeyHash("b"), bytes.Repeat([]byte("beta"), 40))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-5])
	f.Add(append(append([]byte{}, valid...), "junk"...))
	f.Add(appendRecord(append([]byte{}, valid...), KeyHash("a"), []byte("superseding alpha")))
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	huge := appendRecord(nil, KeyHash("huge"), nil)
	binary.LittleEndian.PutUint64(huge[37:], 1<<40)
	f.Add(huge)
	badMagic := append([]byte{}, valid...)
	badMagic[artifactHeaderSize+5] = 'Z'
	f.Add(badMagic)

	f.Fuzz(func(t *testing.T, raw []byte) {
		size := int64(len(raw))
		// The least of three runs, so that allocations of other
		// goroutines in the test binary do not count.
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := scanRecords(bytes.NewReader(raw), size, func([32]byte, int64, int64) {}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > uint64(size)+1024 {
			t.Fatalf("scanning %d bytes allocated %d", size, least)
		}

		type record struct{ off, n int64 }
		latest := map[[32]byte]record{}
		next := int64(0)
		end, err := scanRecords(bytes.NewReader(raw), size, func(h [32]byte, off, n int64) {
			if off != next || n < artifactHeaderSize || off+n > size {
				t.Fatalf("record [%d,+%d) does not follow %d inside %d bytes", off, n, next, size)
			}
			next = off + n
			latest[h] = record{off, n}
		})
		if err != nil || end != next {
			t.Fatalf("scan ended at %d after records ending at %d (err %v)", end, next, err)
		}

		dir := t.TempDir()
		segDir := filepath.Join(dir, segmentsDirName)
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(segDir, "0000000001.seg"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for h, r := range latest {
			rec := raw[r.off : r.off+r.n]
			if got, ok := s.GetByHash(h); ok {
				if !bytes.Equal(got, rec[artifactHeaderSize:]) {
					t.Fatalf("served %x differs from its record", h[:4])
				}
				continue
			}
			if q, err := os.ReadFile(s.quarantinePath(h)); err != nil || !bytes.Equal(q, rec) {
				t.Fatalf("record %x neither served nor quarantined (err %v)", h[:4], err)
			}
		}
		if info, err := os.Stat(filepath.Join(segDir, "0000000001.seg")); err != nil || info.Size() != end {
			t.Fatalf("segment not cut to %d: %v", end, err)
		}
	})
}
