package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

var artifactMagic = [5]byte{'X', 'A', 'R', 'T', '1'}

const (
	// artifactHeaderSize is the fixed prefix of every record:
	// magic[5] + keyhash[32] + paylen uint64 + paysum[32].
	artifactHeaderSize = 5 + 32 + 8 + 32

	// maxArtifactBytes caps how large a record the store will write or
	// read back. Segments are written by this process, but the directory
	// is still treated as semi-trusted input after a restart: a header
	// declaring more is structurally invalid, not an allocation size.
	maxArtifactBytes = 1 << 32

	// scanWindow is how many bytes the header walk reads at a time.
	scanWindow = 64 << 10
)

// segment is one append-only file of XART1 records.
type segment struct {
	id   uint64
	f    *os.File
	size int64 // record bytes in the file; wmu+mu
	live int64 // record bytes of resident artifacts; mu
}

func (s *Store) segmentPath(id uint64) string {
	return filepath.Join(s.dir, segmentsDirName, fmt.Sprintf("%010d.seg", id))
}

// parseSegmentName returns the id of a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	digits, ok := strings.CutSuffix(name, ".seg")
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(digits, 10, 64)
	return id, err == nil
}

// appendRecord appends the XART1 record of payload under key hash h to
// dst.
func appendRecord(dst []byte, h [32]byte, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	dst = append(dst, artifactMagic[:]...)
	dst = append(dst, h[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	dst = append(dst, sum[:]...)
	return append(dst, payload...)
}

// verifyRecord fully verifies one record read back for key hash want —
// magic, key binding, declared length, and payload checksum — and
// returns its payload.
func verifyRecord(rec []byte, want [32]byte) ([]byte, error) {
	if len(rec) < artifactHeaderSize {
		return nil, fmt.Errorf("store: record of %d bytes is shorter than its header", len(rec))
	}
	if !bytes.Equal(rec[:5], artifactMagic[:]) {
		return nil, errors.New("store: bad artifact magic")
	}
	if !bytes.Equal(rec[5:37], want[:]) {
		return nil, errors.New("store: artifact bound to a different key")
	}
	payload := rec[artifactHeaderSize:]
	if plen := binary.LittleEndian.Uint64(rec[37:45]); plen != uint64(len(payload)) {
		return nil, fmt.Errorf("store: declared payload %d bytes, record holds %d", plen, len(payload))
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(rec[45:77], sum[:]) {
		return nil, errors.New("store: payload checksum mismatch")
	}
	return payload, nil
}

// scanRecords walks the records of a segment holding size bytes, reading
// headers only, and calls fn with each record's key hash, offset and
// length. It stops at the first record that is short or structurally
// invalid — bad magic, or a declared length running past the end or the
// artifact cap — and returns the offset where the whole records end. It
// allocates one window of at most scanWindow bytes and never more than
// size.
func scanRecords(r io.ReaderAt, size int64, fn func(h [32]byte, off, n int64)) (int64, error) {
	buf := make([]byte, min(size, scanWindow))
	var base, filled, off int64 // buf holds bytes [base, base+filled)
	for size-off >= artifactHeaderSize {
		if off+artifactHeaderSize > base+filled {
			n, err := readFull(r, buf[:min(size-off, scanWindow)], off)
			if err != nil {
				return off, err
			}
			base, filled = off, int64(n)
			if filled < artifactHeaderSize {
				break // the file is shorter than its stat said
			}
		}
		hdr := buf[off-base : off-base+artifactHeaderSize]
		plen := binary.LittleEndian.Uint64(hdr[37:45])
		if !bytes.Equal(hdr[:5], artifactMagic[:]) ||
			plen > maxArtifactBytes-artifactHeaderSize || plen > uint64(size-off-artifactHeaderSize) {
			break
		}
		var h [32]byte
		copy(h[:], hdr[5:37])
		n := artifactHeaderSize + int64(plen)
		fn(h, off, n)
		off += n
	}
	return off, nil
}

// writeRecord appends rec to the active segment with one WriteAt, first
// rolling over to a new segment when rec would push the active one past
// rollBytes. commit then runs holding s.mu with the record's location,
// before any other append can seal or reclaim its segment.
func (s *Store) writeRecord(rec []byte, commit func(seg *segment, off int64)) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return errClosed
	}
	n := int64(len(rec))
	if s.active == nil || (s.active.size > 0 && s.active.size+n > s.rollBytes) {
		if err := s.rollLocked(); err != nil {
			return err
		}
	}
	seg := s.active
	off := seg.size
	if _, err := seg.f.WriteAt(rec, off); err != nil {
		// Cut a partial record so the segment stays a sequence of whole
		// records. Should the cut fail too, the next append overwrites
		// from the same offset and Open cuts whatever tail remains.
		seg.f.Truncate(off)
		return err
	}
	s.mu.Lock()
	seg.size += n
	s.segBytes += n
	commit(seg, off)
	s.mu.Unlock()
	return nil
}

// rollLocked seals the active segment and starts a new one; the caller
// holds s.wmu.
func (s *Store) rollLocked() error {
	f, err := os.OpenFile(s.segmentPath(s.nextSeg), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	seg := &segment{id: s.nextSeg, f: f}
	s.mu.Lock()
	s.nextSeg++
	s.segs = append(s.segs, seg)
	s.active = seg
	s.mu.Unlock()
	// The sealed segment may already be sparse enough to reclaim.
	s.signalEvict()
	return nil
}

// reclaim deletes sealed segments that hold no resident artifact, and
// compacts those less than half live first. Under a byte budget it
// leaves alone the segment holding the least recently used artifact:
// eviction is draining that one and will empty it without a copy, which
// is what happens to every segment when artifacts age out in write
// order.
func (s *Store) reclaim() {
	s.mu.Lock()
	var draining *segment
	if back := s.order.Back(); back != nil && s.maxBytes > 0 {
		draining = back.Value.(*object).seg
	}
	var idle []*segment
	live := map[*segment][]object{}
	for _, seg := range s.segs {
		if seg == s.active || seg.live > 0 && (seg == draining || 2*seg.live >= seg.size) {
			continue
		}
		idle = append(idle, seg)
		if seg.live > 0 {
			live[seg] = nil
		}
	}
	if len(live) > 0 {
		for _, el := range s.objects {
			o := el.Value.(*object)
			if recs, ok := live[o.seg]; ok {
				live[o.seg] = append(recs, *o)
			}
		}
	}
	s.mu.Unlock()
	for _, seg := range idle {
		s.compact(seg, live[seg])
		s.removeSegment(seg)
	}
}

// compact re-appends the live records of sealed segment seg, as listed
// in moving, to the active segment, verifying each. A record moves only
// if its artifact still lives at the old location when the copy lands;
// one that fails verification is quarantined instead.
func (s *Store) compact(seg *segment, moving []object) {
	sort.Slice(moving, func(i, j int) bool { return moving[i].off < moving[j].off })
	var buf []byte
	for _, o := range moving {
		if int64(cap(buf)) < o.size {
			buf = make([]byte, o.size)
		}
		buf = buf[:o.size]
		n, err := readFull(seg.f, buf, o.off)
		if err != nil {
			return // closing, or an I/O error: leave the segment in place
		}
		if _, err := verifyRecord(buf[:n], o.hash); err != nil {
			s.quarantine(o.hash, seg, o.off, buf[:n])
			continue
		}
		err = s.writeRecord(buf, func(to *segment, off int64) {
			el, ok := s.objects[o.hash]
			if !ok {
				return
			}
			cur := el.Value.(*object)
			if cur.seg != seg || cur.off != o.off {
				return
			}
			seg.live -= cur.size
			to.live += cur.size
			cur.seg, cur.off = to, off
		})
		if err != nil {
			return
		}
		s.compacted.Add(o.size)
	}
}

// removeSegment deletes sealed segment seg if no resident artifact
// lives in it. A Get that resolved a location in seg before its record
// moved reads a closed file and reports a miss.
func (s *Store) removeSegment(seg *segment) {
	s.mu.Lock()
	if seg.live != 0 || seg == s.active {
		s.mu.Unlock()
		return
	}
	for i, x := range s.segs {
		if x == seg {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
	s.segBytes -= seg.size
	s.mu.Unlock()
	seg.f.Close()
	os.Remove(s.segmentPath(seg.id))
}

// warmStart rebuilds the resident set: the segment scan decides WHICH
// artifacts exist and where; the advisory index only contributes
// recency stamps for hashes it knows. Unknown artifacts (index lost or
// stale) enter as least recently used.
func (s *Store) warmStart() error {
	// Reclaim index temp files left by a crash mid-flush.
	if strays, err := filepath.Glob(filepath.Join(s.dir, "index-*.tmp")); err == nil {
		for _, p := range strays {
			os.Remove(p)
		}
	}
	recency := map[[32]byte]uint64{}
	if raw, err := os.ReadFile(filepath.Join(s.dir, indexFileName)); err == nil {
		if idx, derr := decodeIndex(raw); derr == nil {
			for h, meta := range idx {
				recency[h] = meta.seq
			}
		}
		// A corrupt index is rebuilt from the scan — by design, not an
		// error: the index is a hint, the segments are the truth.
	}

	// found holds every record seen, in scan order; latest maps a hash
	// to its newest record, which supersedes the earlier ones.
	var found []*object
	latest := map[[32]byte]*object{}
	adopt := func(o *object) {
		if old := latest[o.hash]; old != nil {
			old.seg.live -= old.size
			old.size = -1
		}
		o.seq = recency[o.hash]
		o.seg.live += o.size
		latest[o.hash] = o
		found = append(found, o)
	}
	if err := s.loadSegments(adopt); err != nil {
		return err
	}

	// Insert oldest-first so the recency list ends up back-to-front; ties
	// keep scan order, newest last.
	sort.SliceStable(found, func(i, j int) bool { return found[i].seq < found[j].seq })
	for _, o := range found {
		if o.size < 0 {
			continue
		}
		s.objects[o.hash] = s.order.PushFront(o)
		s.bytes += o.size
		s.seq = max(s.seq, o.seq)
	}
	return nil
}

// loadSegments opens every segment in creation order, walks its record
// headers, and cuts a torn or malformed tail. The newest segment stays
// the active one.
func (s *Store) loadSegments(adopt func(*object)) error {
	ents, err := os.ReadDir(filepath.Join(s.dir, segmentsDirName))
	if err != nil {
		return fmt.Errorf("store: scan segments: %w", err)
	}
	var ids []uint64
	for _, e := range ents {
		if id, ok := parseSegmentName(e.Name()); ok && e.Type().IsRegular() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f, err := os.OpenFile(s.segmentPath(id), os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("store: open segment: %w", err)
		}
		seg := &segment{id: id, f: f}
		s.segs = append(s.segs, seg)
		info, err := f.Stat()
		if err != nil {
			return fmt.Errorf("store: open segment: %w", err)
		}
		end, err := scanRecords(f, info.Size(), func(h [32]byte, off, n int64) {
			adopt(&object{hash: h, size: n, seg: seg, off: off})
		})
		if err != nil {
			return fmt.Errorf("store: scan segment %d: %w", id, err)
		}
		if end < info.Size() {
			if err := s.cutTail(seg, end, info.Size()); err != nil {
				return err
			}
		}
		seg.size = end
		s.segBytes += end
		s.nextSeg = id + 1
	}
	if len(s.segs) > 0 {
		s.active = s.segs[len(s.segs)-1]
	}
	return nil
}

// cutTail moves the bytes of seg past end into quarantine/ and truncates
// the segment there, leaving only whole records.
func (s *Store) cutTail(seg *segment, end, size int64) error {
	name := fmt.Sprintf("%010d-%d.tail", seg.id, end)
	q, err := os.Create(filepath.Join(s.dir, quarantineDirName, name))
	if err == nil {
		_, err = io.Copy(q, io.NewSectionReader(seg.f, end, size-end))
		if cerr := q.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("store: quarantine segment %d tail: %w", seg.id, err)
	}
	if err := seg.f.Truncate(end); err != nil {
		return fmt.Errorf("store: truncate segment %d: %w", seg.id, err)
	}
	return nil
}

// readFull is io.ReadFull for an io.ReaderAt: it reports how many bytes
// were read and any error other than reaching the end.
func readFull(r io.ReaderAt, buf []byte, off int64) (int, error) {
	n, err := r.ReadAt(buf, off)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return n, err
}
