package store

// The advisory recency index (all integers little-endian):
//
//	magic   [5]byte  "XIDX1"
//	count   uint32   number of entries, ≤ maxIndexEntries
//	entries count × (hash [32]byte, size uint64, seq uint64)
//
// The index exists only so LRU eviction order survives a restart; the
// segment scan on Open decides which artifacts actually exist and how
// big they are. The decoder therefore treats the file as
// untrusted input — the same discipline as the trace codec: nothing is
// allocated from the header-declared count beyond a fixed cap, entries
// are read incrementally, and any structural violation (bad magic,
// count past the cap, truncation, trailing garbage, duplicate hashes)
// is an error. A failed decode costs recency information, never
// correctness.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

var indexMagic = [5]byte{'X', 'I', 'D', 'X', '1'}

const (
	// indexEntrySize is the wire size of one entry: hash + size + seq.
	indexEntrySize = 32 + 8 + 8

	// maxIndexEntries caps how many entries a decoder will accept; far
	// above any realistic resident set, far below anything that could
	// make a hostile count expensive.
	maxIndexEntries = 1 << 20

	// indexPrealloc caps how many entry slots the decoder reserves up
	// front from the untrusted count; beyond this the map grows only as
	// entries actually arrive.
	indexPrealloc = 4096
)

// indexMeta is what the index contributes per artifact: its recency
// stamp. Size is carried for forward compatibility, but the record size
// the segment scan reads wins.
type indexMeta struct {
	size int64
	seq  uint64
}

// decodeIndex parses an index file. It never trusts the declared count:
// allocation is capped and entries are consumed one record at a time,
// so a hostile count of 2^32 costs a bounds check, not gigabytes.
func decodeIndex(raw []byte) (map[[32]byte]indexMeta, error) {
	if len(raw) < 5+4 {
		return nil, errors.New("store: index too short")
	}
	if !bytes.Equal(raw[:5], indexMagic[:]) {
		return nil, errors.New("store: bad index magic")
	}
	count := binary.LittleEndian.Uint32(raw[5:9])
	if count > maxIndexEntries {
		return nil, fmt.Errorf("store: index declares %d entries, cap %d", count, maxIndexEntries)
	}
	body := raw[9:]
	if len(body) != int(count)*indexEntrySize {
		return nil, fmt.Errorf("store: index body is %d bytes, want %d for %d entries",
			len(body), int(count)*indexEntrySize, count)
	}
	prealloc := int(count)
	if prealloc > indexPrealloc {
		prealloc = indexPrealloc
	}
	out := make(map[[32]byte]indexMeta, prealloc)
	for i := 0; i < int(count); i++ {
		rec := body[i*indexEntrySize:]
		var h [32]byte
		copy(h[:], rec[:32])
		if _, dup := out[h]; dup {
			return nil, errors.New("store: duplicate hash in index")
		}
		size := binary.LittleEndian.Uint64(rec[32:40])
		if size > maxArtifactBytes {
			return nil, fmt.Errorf("store: index entry declares %d-byte artifact", size)
		}
		out[h] = indexMeta{size: int64(size), seq: binary.LittleEndian.Uint64(rec[40:48])}
	}
	return out, nil
}

// encodeIndex serializes entries (any order; seq carries recency).
func encodeIndex(objs []object) []byte {
	buf := make([]byte, 9+len(objs)*indexEntrySize)
	copy(buf[:5], indexMagic[:])
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(objs)))
	for i, o := range objs {
		rec := buf[9+i*indexEntrySize:]
		copy(rec[:32], o.hash[:])
		binary.LittleEndian.PutUint64(rec[32:40], uint64(o.size))
		binary.LittleEndian.PutUint64(rec[40:48], o.seq)
	}
	return buf
}

// writeIndex persists the index atomically (temp file + rename), so a
// crash mid-flush leaves the previous index in place.
func writeIndex(path string, objs []object) error {
	if len(objs) > maxIndexEntries {
		// Persist the most recent cap's worth; the rest re-enter as
		// least recently used after a restart.
		objs = objs[len(objs)-maxIndexEntries:]
	}
	f, err := os.CreateTemp(filepath.Dir(path), "index-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(encodeIndex(objs))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
