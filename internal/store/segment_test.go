package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// mustOpen opens a store for the test; it is closed at the end of the
// test unless the test closes it first (Close is idempotent).
func mustOpen(t *testing.T, dir string, maxBytes, rollBytes int64) *Store {
	t.Helper()
	s, err := open(dir, maxBytes, rollBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustClose(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkReopen writes seg as the only segment of a fresh store directory
// and opens it. Every artifact in served must come back byte-exact,
// absent must miss without counting a corruption, the segment must be
// cut to end with the cut bytes in quarantine, and a put made after the
// reopen must survive another reopen.
func checkReopen(t *testing.T, seg []byte, end int64, served map[string][]byte, absent string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, segmentsDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentsDirName, "0000000001.seg")
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 0, segmentBytes)
	for key, payload := range served {
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("complete record %q not served byte-exact", key)
		}
	}
	if _, ok := s.Get(absent); ok {
		t.Fatalf("cut record %q served", absent)
	}
	if st := s.Stats(); st.Corruptions != 0 {
		t.Fatalf("torn tail counted %d corruptions", st.Corruptions)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != end {
		t.Fatalf("segment is %d bytes, want it cut to its last whole record at %d", info.Size(), end)
	}
	tail, err := os.ReadFile(filepath.Join(dir, quarantineDirName, fmt.Sprintf("0000000001-%d.tail", end)))
	if int64(len(seg)) > end && (err != nil || !bytes.Equal(tail, seg[end:])) {
		t.Fatalf("cut bytes not quarantined (err %v)", err)
	}
	if err := s.Put("after", []byte("written after the reopen")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)

	s = mustOpen(t, dir, 0, segmentBytes)
	if got, ok := s.Get("after"); !ok || string(got) != "written after the reopen" {
		t.Fatal("put after the reopen lost on the next reopen")
	}
	for key, payload := range served {
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%q lost on the second reopen", key)
		}
	}
}

// TestObjectsTreeIgnored: a valid artifact file in the
// one-file-per-artifact layout that predates segments
// (objects/<hh>/<hash>.art) is neither served nor moved: Open leaves
// the tree as it is, and the key misses.
func TestObjectsTreeIgnored(t *testing.T) {
	dir := t.TempDir()
	h := KeyHash("old")
	name := fmt.Sprintf("%x", h)
	path := filepath.Join(dir, "objects", name[:2], name+".art")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := appendRecord(nil, h, []byte("payload"))
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 0, segmentBytes)
	if _, ok := s.Get("old"); ok {
		t.Error("artifact under objects/ served")
	}
	if st := s.Stats(); st.Objects != 0 || st.Corruptions != 0 {
		t.Errorf("stats %+v, want no objects and no corruptions", st)
	}
	mustClose(t, s)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, rec) {
		t.Errorf("objects/ file not left as it was (err %v)", err)
	}
}

// TestTornTailCutAtEveryOffset: a crash can cut the active segment
// anywhere inside the record being appended. At every such offset the
// reopened store serves every complete record, treats the cut one as
// absent, and keeps appending to a parseable segment.
func TestTornTailCutAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0, segmentBytes)
	served := map[string][]byte{
		"first":  bytes.Repeat([]byte("one"), 50),
		"second": []byte("two"),
	}
	for _, key := range []string{"first", "second"} {
		if err := s.Put(key, served[key]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("last", bytes.Repeat([]byte{0x5A}, 40)); err != nil {
		t.Fatal(err)
	}
	path, off, n := recordAt(t, s, "last")
	mustClose(t, s)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := off; cut < off+n; cut++ {
		checkReopen(t, raw[:cut], off, served, "last")
	}
}

// TestGarbageAfterCompleteRecord: bytes after the last complete record
// that do not form a record — noise, a torn magic, a header declaring
// more than the file holds or more than the artifact cap — are cut and
// quarantined; every complete record survives.
func TestGarbageAfterCompleteRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0, segmentBytes)
	served := map[string][]byte{"a": []byte("alpha"), "b": bytes.Repeat([]byte("beta"), 64)}
	for _, key := range []string{"a", "b"} {
		if err := s.Put(key, served[key]); err != nil {
			t.Fatal(err)
		}
	}
	path, _, _ := recordAt(t, s, "a")
	mustClose(t, s)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := func(plen uint64) []byte {
		h := appendRecord(nil, KeyHash("ghost"), nil)
		binary.LittleEndian.PutUint64(h[37:], plen)
		return h
	}
	garbage := map[string][]byte{
		"noise":         []byte("\x00\xff garbage after the last record"),
		"torn magic":    []byte("XAR"),
		"past the end":  append(header(1000), 1, 2, 3),
		"past the cap":  header(maxArtifactBytes),
		"bad magic rec": append([]byte("ZART1"), appendRecord(nil, KeyHash("ghost"), []byte("x"))[5:]...),
	}
	for name, junk := range garbage {
		t.Run(name, func(t *testing.T) {
			seg := append(append([]byte{}, raw...), junk...)
			checkReopen(t, seg, int64(len(raw)), served, "ghost")
		})
	}
}

// TestCompactionReclaimsSegments: once eviction leaves a sealed segment
// empty it is deleted, and once it leaves one less than half live its
// live records move to the active segment and it is deleted — unless it
// holds the least recently used artifact, which eviction drains without
// a copy. Survivors are served byte-exact before and after a reopen.
func TestCompactionReclaimsSegments(t *testing.T) {
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 200) }
	rec := int64(artifactHeaderSize + 200)
	dir := t.TempDir()
	// Three records per segment; room for five resident.
	s := mustOpen(t, dir, 5*rec, 3*rec+1)
	for i := 0; i < 12; i++ {
		if err := s.Put(fmt.Sprint("k", i), payload(i)); err != nil {
			t.Fatal(err)
		}
		// Keep k1 hot so it outlives its segment. A Get racing the
		// compaction that moves k1 may miss, but still refreshes it.
		s.Get("k1")
	}
	settled := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		draining := s.order.Back().Value.(*object).seg
		for _, seg := range s.segs {
			if seg != s.active && seg != draining && 2*seg.live < seg.size {
				return false
			}
		}
		return s.bytes <= 5*rec
	}
	waitFor(t, "eviction and compaction to settle", settled)
	st := s.Stats()
	if st.Evictions != 7 || st.CompactedBytes < rec || st.Objects != 5 {
		t.Errorf("stats %+v, want 7 evictions, ≥ 1 record compacted, 5 objects", st)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segmentsDirName, "*.seg"))
	if int64(len(segs)) != st.Segments || st.Segments >= 4 {
		t.Errorf("%d segment files, Stats says %d; want fewer than the 4 written", len(segs), st.Segments)
	}
	var onDisk int64
	for _, p := range segs {
		if info, err := os.Stat(p); err == nil {
			onDisk += info.Size()
		}
	}
	if st.DeadBytes != onDisk-st.Bytes {
		t.Errorf("DeadBytes = %d, want %d on disk minus %d live", st.DeadBytes, onDisk, st.Bytes)
	}
	resident := []int{1, 8, 9, 10, 11}
	for _, i := range resident {
		if got, ok := s.Get(fmt.Sprint("k", i)); !ok || !bytes.Equal(got, payload(i)) {
			t.Errorf("k%d not served byte-exact after compaction", i)
		}
	}
	if _, ok := s.Get("k0"); ok {
		t.Error("evicted k0 served")
	}
	mustClose(t, s)

	s = mustOpen(t, dir, 5*rec, 3*rec+1)
	defer mustClose(t, s)
	waitFor(t, "the reopened store to trim", func() bool { return s.Stats().Bytes <= 5*rec })
	for _, i := range resident {
		if got, ok := s.Get(fmt.Sprint("k", i)); !ok || !bytes.Equal(got, payload(i)) {
			t.Errorf("k%d not served after reopen", i)
		}
	}
	if st := s.Stats(); st.Corruptions != 0 {
		t.Errorf("compaction left %d corruptions", st.Corruptions)
	}
}

// TestEvictionInWriteOrderCopiesNothing: when artifacts age out in the
// order they were written, each segment drains through eviction and is
// deleted once empty; compaction never copies a record that eviction
// would drop next.
func TestEvictionInWriteOrderCopiesNothing(t *testing.T) {
	rec := int64(artifactHeaderSize + 100)
	dir := t.TempDir()
	s := mustOpen(t, dir, 5*rec, 3*rec+1)
	defer mustClose(t, s)
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprint("k", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "eviction to empty the old segments", func() bool {
		st := s.Stats()
		return st.Evictions == 25 && st.Segments <= 3
	})
	if st := s.Stats(); st.CompactedBytes != 0 {
		t.Errorf("compaction copied %d bytes of artifacts eviction was about to drop", st.CompactedBytes)
	}
}

// TestStoreConcurrentPutGetEvict: eight goroutines put, get and size a
// shared key space under a budget small enough that eviction and
// compaction run throughout. Every hit must equal its payload, and no
// corruption may be counted.
func TestStoreConcurrentPutGetEvict(t *testing.T) {
	payload := func(k int) []byte {
		p := bytes.Repeat([]byte{byte(k), byte(k >> 8)}, 50+k%400)
		return append(p, fmt.Sprint("key", k)...)
	}
	const keys, hot = 300, 8
	dir := t.TempDir()
	s := mustOpen(t, dir, 24<<10, 4<<10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 600; i++ {
				k := rng.Intn(keys)
				if rng.Intn(3) == 0 {
					k %= hot // a hot set that outlives its segments
				}
				key, want := fmt.Sprint("key", k), payload(k)
				switch rng.Intn(4) {
				case 0:
					if err := s.Put(key, want); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if got, ok := s.Get(key); ok && !bytes.Equal(got, want) {
						t.Errorf("Get(%s) served a wrong payload", key)
						return
					}
				case 2:
					if got, ok := s.GetByHash(KeyHash(key)); ok && !bytes.Equal(got, want) {
						t.Errorf("GetByHash(%s) served a wrong payload", key)
						return
					}
				case 3:
					if n, ok := s.Size(key); ok && n != int64(len(want)) {
						t.Errorf("Size(%s) = %d, want %d", key, n, len(want))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Corruptions != 0 || st.PutErrors != 0 {
		t.Fatalf("stats %+v: corruptions or put errors under concurrency", st)
	}
	if st.Evictions == 0 || st.CompactedBytes == 0 {
		t.Fatalf("stats %+v: eviction and compaction did not both run", st)
	}
	mustClose(t, s)

	s = mustOpen(t, dir, 24<<10, 4<<10)
	defer mustClose(t, s)
	for k := 0; k < keys; k++ {
		if got, ok := s.Get(fmt.Sprint("key", k)); ok && !bytes.Equal(got, payload(k)) {
			t.Fatalf("key%d served a wrong payload after reopen", k)
		}
	}
	if st := s.Stats(); st.Corruptions != 0 {
		t.Fatalf("reopen counted %d corruptions", st.Corruptions)
	}
}

// TestFailedPutLeavesSegmentIntact: a write that fails counts a put
// error, makes nothing resident, and leaves the append offset where the
// next record must go.
func TestFailedPutLeavesSegmentIntact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0, segmentBytes)
	if err := s.Put("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	path, _, _ := recordAt(t, s, "a")
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	s.wmu.Lock()
	rw := s.active.f
	s.active.f = ro
	s.wmu.Unlock()
	if err := s.Put("b", []byte("lost")); err == nil {
		t.Fatal("put through a read-only segment succeeded")
	}
	if _, ok := s.Size("b"); ok {
		t.Fatal("failed put made its key resident")
	}
	if st := s.Stats(); st.PutErrors != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v, want 1 put error beside 1 put", st)
	}
	s.wmu.Lock()
	s.active.f = rw
	s.wmu.Unlock()
	if err := s.Put("b", []byte("second")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)
	s = mustOpen(t, dir, 0, segmentBytes)
	defer mustClose(t, s)
	for key, want := range map[string]string{"a": "first", "b": "second"} {
		if got, ok := s.Get(key); !ok || string(got) != want {
			t.Errorf("%q not served after reopen", key)
		}
	}
}
