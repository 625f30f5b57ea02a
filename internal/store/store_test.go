package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"extrap/internal/core"
	"extrap/internal/trace"
)

func openTemp(t *testing.T, maxBytes int64) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := openTemp(t, 0)
	key := "trace/v1|bench=\"rt\"|n=8"
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 500)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("just-put artifact missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round-tripped payload differs")
	}
	if _, ok := s.Get("some other key"); ok {
		t.Fatal("unknown key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Objects != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put, 1 object", st)
	}
	if st.Bytes != int64(artifactHeaderSize+len(payload)) {
		t.Errorf("Bytes = %d, want %d", st.Bytes, artifactHeaderSize+len(payload))
	}
	// Re-putting a resident key is a no-op, not a rewrite.
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Puts != 1 || st.Objects != 1 {
		t.Errorf("after duplicate put: stats = %+v, want still 1 put, 1 object", st)
	}
}

// TestPutSupersedesOtherBytes: a Put of a resident key whose payload
// differs appends a new record and repoints the key, with the old record
// counted as dead bytes; a reopened store serves the new payload, and
// putting the same bytes again writes nothing.
func TestPutSupersedesOtherBytes(t *testing.T) {
	s, dir := openTemp(t, 0)
	key := "pred/v1|heal"
	if err := s.Put(key, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0x5A}, 300)
	for range 2 {
		if err := s.Put(key, fresh); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, fresh) {
		t.Fatalf("Get = %q, %v; want the superseding payload", got, ok)
	}
	st := s.Stats()
	if st.Puts != 2 || st.Objects != 1 || st.Bytes != int64(artifactHeaderSize+len(fresh)) ||
		st.DeadBytes != int64(artifactHeaderSize+len("garbage")) {
		t.Errorf("stats = %+v, want 2 puts, 1 object of %d bytes, the old record dead", st, artifactHeaderSize+len(fresh))
	}
	mustClose(t, s)
	s = mustOpen(t, dir, 0, segmentBytes)
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, fresh) {
		t.Fatalf("reopened store serves %q, %v; want the superseding payload", got, ok)
	}
}

// recordAt returns the segment path, offset and length of key's
// resident record.
func recordAt(t *testing.T, s *Store, key string) (string, int64, int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.objects[KeyHash(key)]
	if !ok {
		t.Fatalf("%q not resident", key)
	}
	o := el.Value.(*object)
	return s.segmentPath(o.seg.id), o.off, o.size
}

// TestCorruptionQuarantinedNeverServed: every corruption mode of a record
// inside a segment — flipped payload byte, flipped checksum byte, wrong
// key binding, bad magic, truncation, a grown declared length — must
// yield a miss, count a corruption, keep the bytes read in quarantine,
// leave the neighbouring record servable, and let a re-put recompute it.
func TestCorruptionQuarantinedNeverServed(t *testing.T) {
	corruptions := map[string]func(seg []byte, off, n int64) []byte{
		"flipped payload byte": func(seg []byte, off, n int64) []byte {
			seg[off+artifactHeaderSize+3] ^= 0x01
			return seg
		},
		"flipped checksum byte": func(seg []byte, off, n int64) []byte {
			seg[off+45] ^= 0x80
			return seg
		},
		"wrong key binding": func(seg []byte, off, n int64) []byte {
			seg[off+5] ^= 0xFF
			return seg
		},
		"bad magic": func(seg []byte, off, n int64) []byte {
			seg[off] = 'Z'
			return seg
		},
		"truncated": func(seg []byte, off, n int64) []byte {
			return seg[:off+n-7]
		},
		"grown": func(seg []byte, off, n int64) []byte {
			plen := binary.LittleEndian.Uint64(seg[off+37:])
			binary.LittleEndian.PutUint64(seg[off+37:], plen+1)
			return seg
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, _ := openTemp(t, 0)
			neighbour, nPayload := "trace/v1|bench=\"neighbour\"", []byte("neighbour payload")
			key := "trace/v1|bench=\"corrupt\""
			payload := bytes.Repeat([]byte{7}, 256)
			if err := s.Put(neighbour, nPayload); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			path, off, n := recordAt(t, s, key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := corrupt(raw, off, n)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}

			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt artifact SERVED: %d bytes", len(got))
			}
			if st := s.Stats(); st.Corruptions != 1 {
				t.Errorf("Corruptions = %d, want 1", st.Corruptions)
			}
			if _, ok := s.Size(key); ok {
				t.Error("corrupt artifact still resident")
			}
			q, err := os.ReadFile(s.quarantinePath(KeyHash(key)))
			if err != nil {
				t.Fatalf("corrupt artifact not in quarantine: %v", err)
			}
			if want := bad[off:min(off+n, int64(len(bad)))]; !bytes.Equal(q, want) {
				t.Errorf("quarantine holds %d bytes, want the %d corrupt record bytes", len(q), len(want))
			}
			if got, ok := s.Get(neighbour); !ok || !bytes.Equal(got, nPayload) {
				t.Error("corruption of one record cost its neighbour")
			}
			// Recompute path: a fresh Put succeeds and serves again.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatal("re-put after quarantine does not serve the good payload")
			}
			if st := s.Stats(); st.Corruptions != 1 {
				t.Errorf("Corruptions = %d after re-put, want still 1", st.Corruptions)
			}
		})
	}
}

// TestEvictionHonorsByteBudget: past-budget artifacts are trimmed in
// LRU order by the background goroutine.
func TestEvictionHonorsByteBudget(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 1000)
	perObject := int64(artifactHeaderSize + len(payload))
	s, _ := openTemp(t, 3*perObject)
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	for _, k := range keys {
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Bytes <= 3*perObject && st.Evictions >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("eviction never brought store under budget: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Oldest two are gone, newest three remain.
	for _, k := range keys[:2] {
		if _, ok := s.Get(k); ok {
			t.Errorf("evicted key %q still served", k)
		}
	}
	for _, k := range keys[2:] {
		if _, ok := s.Get(k); !ok {
			t.Errorf("resident key %q missed", k)
		}
	}
}

// TestWarmStartRestoresArtifactsAndRecency: a reopened store serves
// everything the closed store held, and its persisted recency drives
// eviction order — the artifact touched last survives a tightened
// budget even though it was written first.
func TestWarmStartRestoresArtifactsAndRecency(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{9}, 1000)
	perObject := int64(artifactHeaderSize + len(payload))
	for _, k := range []string{"first", "second", "third"} {
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("first"); !ok { // refresh: "first" becomes MRU
		t.Fatal("miss before close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with room for just one object: only the most recently
	// used ("first") should survive the eager trim.
	s2, err := Open(dir, perObject)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s2.Stats(); st.Bytes <= perObject {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reopened store never trimmed to budget: %+v", s2.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := s2.Get("first"); !ok {
		t.Error("most recently used artifact did not survive the restart trim")
	}
	for _, k := range []string{"second", "third"} {
		if _, ok := s2.Get(k); ok {
			t.Errorf("least recently used %q survived over the MRU", k)
		}
	}
}

// TestWarmStartSurvivesCorruptIndex: the index is advisory — a reopened
// store with a trashed index still serves every artifact.
func TestWarmStartSurvivesCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives")
	if err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFileName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get("k")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("artifact lost behind a corrupt index")
	}
}

// TestTraceBackendAdapter: Store satisfies core.TraceBackend and round
// trips through the CacheKey canonical encoding. An artifact at the
// trace/v1 address, where a store written before XTRP2 kept its traces,
// is never read as a trace.
func TestTraceBackendAdapter(t *testing.T) {
	s, _ := openTemp(t, 0)
	var backend core.TraceBackend = s
	key := core.CacheKey{Bench: "adapter", N: 4, Iters: 2, Threads: 8}
	if err := s.Put(key.Canonical(), []byte("pre-XTRP2 artifact")); err != nil {
		t.Fatal(err)
	}
	if _, ok := backend.GetTrace(key, trace.FormatXTRP2); ok {
		t.Fatal("XTRP2 key hit the trace/v1 artifact")
	}
	enc2 := []byte("pretend-xtrp2-bytes")
	backend.PutTrace(key, trace.FormatXTRP2, enc2)
	got2, ok := backend.GetTrace(key, trace.FormatXTRP2)
	if !ok || !bytes.Equal(got2, enc2) {
		t.Fatal("TraceBackend adapter did not round trip")
	}
	if _, ok := backend.GetTrace(core.CacheKey{Bench: "adapter", N: 5, Iters: 2, Threads: 8}, trace.FormatXTRP2); ok {
		t.Fatal("distinct key hit the same artifact")
	}

	// Size reads the index without touching disk or recency, and reports
	// payload bytes (header excluded).
	if sz, ok := s.Size(key.CanonicalFormat(trace.FormatXTRP2)); !ok || sz != int64(len(enc2)) {
		t.Fatalf("Size = %d, %v; want %d, true", sz, ok, len(enc2))
	}
	if _, ok := s.Size("no-such-key"); ok {
		t.Fatal("Size reported a nonexistent artifact")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	objs := []object{
		{hash: KeyHash("a"), size: 100, seq: 1},
		{hash: KeyHash("b"), size: 200, seq: 2},
		{hash: KeyHash("c"), size: 300, seq: 9},
	}
	got, err := decodeIndex(encodeIndex(objs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(objs) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(objs))
	}
	for _, o := range objs {
		m, ok := got[o.hash]
		if !ok || m.size != o.size || m.seq != o.seq {
			t.Errorf("entry %x: got %+v, want size %d seq %d", o.hash[:4], m, o.size, o.seq)
		}
	}
}

func TestIndexDecodeRejectsHostileInputs(t *testing.T) {
	valid := encodeIndex([]object{{hash: KeyHash("x"), size: 10, seq: 1}})
	cases := map[string][]byte{
		"empty":          {},
		"short":          valid[:8],
		"bad magic":      append([]byte("ZIDX1"), valid[5:]...),
		"truncated body": valid[:len(valid)-1],
		"trailing junk":  append(append([]byte{}, valid...), 0),
		"huge count": func() []byte {
			b := append([]byte{}, valid...)
			b[5], b[6], b[7], b[8] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}(),
		"oversize artifact": func() []byte {
			b := append([]byte{}, valid...)
			for i := 41; i < 49; i++ {
				b[i] = 0xFF
			}
			return b
		}(),
		"duplicate hash": func() []byte {
			o := object{hash: KeyHash("x"), size: 10, seq: 1}
			return encodeIndex([]object{o, o})
		}(),
	}
	for name, raw := range cases {
		if _, err := decodeIndex(raw); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
