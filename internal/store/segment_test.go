package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/trace"
)

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readTree maps each regular file under root to its bytes.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		out[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

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

// TestLegacyObjectsImportedOnce: testdata/legacy is a store directory
// written by the one-file-per-artifact layout — by `extrap serve` running
// a grid size-16, 4-iteration cm5 job over procs 1 and 2 — holding the
// 1-thread XTRP2 trace, the procs-1 pred/v1 record, and the procs-2
// pred/v1 record with one payload byte flipped. Open must serve the good
// artifacts under their keys byte-exact, quarantine the corrupt one and
// leave nothing under objects/; a second Open changes nothing.
func TestLegacyObjectsImportedOnce(t *testing.T) {
	b, err := benchmarks.ByName("grid")
	if err != nil {
		t.Fatal(err)
	}
	env, err := machine.ByName("cm5")
	if err != nil {
		t.Fatal(err)
	}
	sz := b.DefaultSize()
	sz.N, sz.Iters, sz.Verify = 16, 4, false
	mkey := func(threads int) core.CacheKey {
		return experiments.MeasurementKey(b.Name(), sz, threads, core.MeasureOptions{SizeMode: pcxx.ActualSize})
	}
	good := []string{
		mkey(1).CanonicalFormat(trace.FormatXTRP2),
		core.CanonicalPrediction(mkey(1), env.Config),
	}
	corrupt := core.CanonicalPrediction(mkey(2), env.Config)
	fixture := filepath.Join("testdata", "legacy")
	legacyPath := func(root, key string) string {
		name := fmt.Sprintf("%x", KeyHash(key))
		return filepath.Join(root, legacyDirName, name[:2], name+".art")
	}
	want := map[string][]byte{}
	for _, key := range good {
		raw, err := os.ReadFile(legacyPath(fixture, key))
		if err != nil {
			t.Fatalf("fixture lacks %q: %v", key, err)
		}
		want[key] = raw[artifactHeaderSize:]
	}
	corruptRaw, err := os.ReadFile(legacyPath(fixture, corrupt))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	copyTree(t, fixture, dir)
	s := mustOpen(t, dir, 0, segmentBytes)
	for key, payload := range want {
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Errorf("imported %q not served byte-exact", key)
		}
	}
	if _, ok := s.Get(corrupt); ok {
		t.Error("corrupt legacy artifact served")
	}
	if st := s.Stats(); st.Corruptions != 1 || st.Objects != 2 || st.Segments != 1 {
		t.Errorf("stats %+v, want 1 corruption, 2 objects, 1 segment", st)
	}
	if q, err := os.ReadFile(s.quarantinePath(KeyHash(corrupt))); err != nil || !bytes.Equal(q, corruptRaw) {
		t.Errorf("corrupt legacy file not quarantined intact (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyDirName)); !os.IsNotExist(err) {
		t.Errorf("objects/ still present after import: %v", err)
	}
	mustClose(t, s)

	before := readTree(t, filepath.Join(dir, segmentsDirName))
	quarantined := readTree(t, filepath.Join(dir, quarantineDirName))
	s = mustOpen(t, dir, 0, segmentBytes)
	for key, payload := range want {
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Errorf("%q not served after the second Open", key)
		}
	}
	if st := s.Stats(); st.Corruptions != 0 {
		t.Errorf("second Open counted %d corruptions", st.Corruptions)
	}
	mustClose(t, s)
	if after := readTree(t, filepath.Join(dir, segmentsDirName)); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Error("second Open changed the segments")
	}
	if after := readTree(t, filepath.Join(dir, quarantineDirName)); fmt.Sprint(after) != fmt.Sprint(quarantined) {
		t.Error("second Open changed the quarantine")
	}

	// An import cut short after appending a file but before removing it
	// resumes by removing the file, without appending it twice.
	copyTree(t, filepath.Join(fixture, legacyDirName), filepath.Join(dir, legacyDirName))
	if err := os.Remove(legacyPath(dir, corrupt)); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, 0, segmentBytes)
	mustClose(t, s)
	if after := readTree(t, filepath.Join(dir, segmentsDirName)); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Error("resumed import appended already imported artifacts again")
	}
	if _, err := os.Stat(filepath.Join(dir, legacyDirName)); !os.IsNotExist(err) {
		t.Errorf("objects/ still present after the resumed import: %v", err)
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
