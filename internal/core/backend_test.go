package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"extrap/internal/trace"
)

// fakeBackend is an in-memory TraceBackend recording its traffic, so
// tests can assert exactly when the durable tier is consulted and what
// is written through. Like the real store, it addresses traces by
// CanonicalFormat.
type fakeBackend struct {
	mu   sync.Mutex
	data map[string][]byte
	gets int
	puts int
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{data: make(map[string][]byte)}
}

func (b *fakeBackend) GetTrace(key CacheKey, format trace.Format) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	enc, ok := b.data[key.CanonicalFormat(format)]
	return enc, ok
}

func (b *fakeBackend) PutTrace(key CacheKey, format trace.Format, enc []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts++
	b.data[key.CanonicalFormat(format)] = enc
}

func (b *fakeBackend) stored(key CacheKey) ([]byte, bool) {
	return b.storedAt(key.CanonicalFormat(trace.FormatXTRP2))
}

func (b *fakeBackend) storedAt(canonical string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	enc, ok := b.data[canonical]
	return enc, ok
}

func (b *fakeBackend) counts() (gets, puts int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gets, b.puts
}

func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEntrySurvivesEvictionViaFlights (white box): evicting an entry
// from the LRU while its first measurement is conceptually in flight
// must not detach a later lookup from it — the flights registry hands
// back the same entry until it settles.
func TestEntrySurvivesEvictionViaFlights(t *testing.T) {
	c := NewTraceCache(1, 0)
	key := CacheKey{Bench: "flight", Threads: 2}
	e1 := c.entry(key)
	// Churn on other keys pushes key out of the single-entry LRU.
	c.entry(CacheKey{Bench: "other-a", Threads: 2})
	c.entry(CacheKey{Bench: "other-b", Threads: 2})
	if _, ok := c.entries[key]; ok {
		t.Fatal("key unexpectedly still resident in the LRU")
	}
	if e2 := c.entry(key); e2 != e1 {
		t.Error("post-eviction lookup created a second entry; flights registry did not join the in-flight one")
	}
	c.settle(key, e1)
	if e3 := c.entry(key); e3 == e1 {
		t.Error("settled entry still handed out via flights after eviction")
	}
}

// TestSingleflightUnderEviction (end to end, -race): with a one-entry
// cache, a measurement in progress survives being evicted by churn on
// other keys — a concurrent request for the same key joins it instead
// of starting a second measurement.
func TestSingleflightUnderEviction(t *testing.T) {
	c := NewTraceCache(1, 0)
	key := CacheKey{Bench: "flight", Threads: 4}

	started := make(chan struct{})
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex
	measure := func() (*trace.Trace, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			close(started)
			<-release
		}
		return Measure(testProgram(4), MeasureOptions{})
	}

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		enc, err := c.Encoded(key, measure)
		if err != nil {
			t.Error(err)
		}
		results[0] = enc
	}()
	<-started

	// Evict the in-flight entry, then issue a second request for it.
	if _, err := c.Encoded(CacheKey{Bench: "churn", Threads: 2}, func() (*trace.Trace, error) {
		return Measure(testProgram(2), MeasureOptions{})
	}); err != nil {
		t.Fatal(err)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		enc, err := c.Encoded(key, measure)
		if err != nil {
			t.Error(err)
		}
		results[1] = enc
	}()
	// Release the first measurement only once the second request has
	// looked the key up (the third lookup, after the first request's
	// and the churn's): until release the flight cannot settle, so the
	// lookup is guaranteed to have joined it. Releasing earlier lets a
	// slow-to-schedule second request arrive after the flight settled
	// and measure again, which is correct behaviour, not the case under
	// test.
	for c.lookups.Load() < 3 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Errorf("measurement ran %d times, want 1 (second request should join the evicted flight)", calls)
	}
	if len(results[0]) == 0 || len(results[1]) == 0 || &results[0][0] != &results[1][0] {
		t.Error("concurrent requests did not share the single measurement's bytes")
	}
	c.mu.Lock()
	leaked := len(c.flights)
	c.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d flights left registered after all measurements settled", leaked)
	}
}

// TestFlightsSettledAfterContextAbort: a cancelled measurement is not
// memoized, and its flight must still be unregistered — otherwise every
// never-retried key leaks a map entry.
func TestFlightsSettledAfterContextAbort(t *testing.T) {
	c := NewTraceCache(2, 0)
	key := CacheKey{Bench: "abort", Threads: 2}
	var calls int
	if _, err := c.Encoded(key, func() (*trace.Trace, error) {
		calls++
		return nil, context.Canceled
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	c.mu.Lock()
	leaked := len(c.flights)
	c.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d flights left registered after a context-aborted measurement", leaked)
	}
	// The abort was not memoized: the next caller re-measures.
	if _, err := c.Encoded(key, func() (*trace.Trace, error) {
		calls++
		return Measure(testProgram(2), MeasureOptions{})
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("measurement ran %d times, want 2 (abort must not be memoized)", calls)
	}
}

// TestBackendWriteThrough: a fresh measurement is written through to the
// backend as the bytes the cache serves, which are the trace's own
// XTRP2 encoding.
func TestBackendWriteThrough(t *testing.T) {
	b := newFakeBackend()
	c := NewTraceCache(0, 0)
	c.SetBackend(b)
	key := CacheKey{Bench: "wt", Threads: 4}
	measure := func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	}
	enc, err := c.Encoded(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := b.stored(key)
	if !ok {
		t.Fatal("fresh measurement was not written through to the backend")
	}
	if !bytes.Equal(stored, enc) {
		t.Error("written-through bytes differ from the served encoding")
	}
	tr, err := measure()
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeTrace(t, tr); !bytes.Equal(stored, want) {
		t.Error("backend bytes differ from the trace's own XTRP2 encoding")
	}
	if _, err := trace.ReadBinary2(stored); err != nil {
		t.Fatalf("backend bytes do not decode: %v", err)
	}
}

// TestBackendServesColdCache: a cold cache sharing the backend serves
// the durable artifact instead of re-measuring, byte-identical to what
// the warm cache served.
func TestBackendServesColdCache(t *testing.T) {
	b := newFakeBackend()
	warm := NewTraceCache(4, 0)
	warm.SetBackend(b)
	key := CacheKey{Bench: "cold", Threads: 4}
	measure := func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	}
	want, err := warm.Encoded(key, measure)
	if err != nil {
		t.Fatal(err)
	}

	cold := NewTraceCache(4, 0)
	cold.SetBackend(b)
	got, err := cold.Encoded(key, func() (*trace.Trace, error) {
		t.Error("cold cache re-measured despite a backend hit")
		return measure()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("backend hit returned different bytes")
	}
	if _, misses := cold.Stats(); misses != 0 {
		t.Errorf("cold cache recorded %d measurement misses, want 0", misses)
	}
}

// TestEncodedWriteThroughAndBudget: a backend artifact exceeding the
// per-trace budget is memoized as ErrTraceTooLarge — deterministically
// too large, never half-served.
func TestEncodedWriteThroughAndBudget(t *testing.T) {
	b := newFakeBackend()
	warm := NewTraceCache(4, 0)
	warm.SetBackend(b)
	key := CacheKey{Bench: "budget", Threads: 4}
	enc, err := warm.Encoded(key, func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}

	before, _ := b.counts()
	tight := NewTraceCache(4, int64(len(enc))-1)
	tight.SetBackend(b)
	for i := 0; i < 2; i++ {
		if _, err := tight.Encoded(key, func() (*trace.Trace, error) {
			t.Error("oversized backend artifact triggered a re-measurement")
			return Measure(testProgram(4), MeasureOptions{})
		}); !errors.Is(err, trace.ErrTraceTooLarge) {
			t.Fatalf("call %d: got %v, want ErrTraceTooLarge", i, err)
		}
	}
	if gets, _ := b.counts(); gets-before != 1 {
		t.Errorf("tight cache consulted the backend %d times, want 1 (budget failure memoized)", gets-before)
	}
}

// TestXTRP2CacheFormat: the cache writes XTRP2 artifacts under the v2
// key and serves them back to a cold cache. An artifact a store wrote
// before XTRP2, at the trace/v1 address, is never read: its
// measurement is re-run, with the same trace, and written through under
// the v2 key.
func TestXTRP2CacheFormat(t *testing.T) {
	b := newFakeBackend()
	warm := NewTraceCache(4, 0)
	warm.SetBackend(b)
	key := CacheKey{Bench: "fmt2", Threads: 4}
	measure := func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	}
	enc, err := warm.Encoded(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.CompileBinary(enc); err != nil {
		t.Fatalf("cache served non-XTRP2 bytes: %v", err)
	}
	if _, ok := b.stored(key); !ok {
		t.Fatal("fresh XTRP2 encoding was not written through under the v2 key")
	}
	if _, ok := b.storedAt(key.Canonical()); ok {
		t.Fatal("cache wrote an artifact under the v1 key")
	}
	cs := warm.Compression()
	if cs.RawBytes <= 0 || cs.EncodedBytes <= 0 {
		t.Fatalf("compression stats did not advance: %+v", cs)
	}

	cold := NewTraceCache(4, 0)
	cold.SetBackend(b)
	got, err := cold.Encoded(key, func() (*trace.Trace, error) {
		t.Error("cold cache re-measured despite a v2 backend hit")
		return measure()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, enc) {
		t.Fatal("cold v2 hit returned different bytes")
	}

	// A store holding only an artifact at the v1 address (written before
	// XTRP2): the cache misses, re-measures once, and writes the same
	// trace through as XTRP2.
	old := newFakeBackend()
	old.data[key.Canonical()] = []byte("pre-XTRP2 artifact")
	c := NewTraceCache(4, 0)
	c.SetBackend(old)
	if got, err = c.Encoded(key, measure); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Errorf("%d measurements over a pre-migration artifact, want 1", misses)
	}
	if !bytes.Equal(got, enc) {
		t.Error("re-measured trace differs from the pre-migration one")
	}
	if v2, ok := old.stored(key); !ok || !bytes.Equal(v2, enc) {
		t.Error("re-measured trace not written through under the v2 key")
	}
}

// TestOneBackendLookupPerColdMiss: a cold cache consults the durable
// tier once per lookup, under the XTRP2 key, whether the tier answers or
// not — a clustered worker forwards each lookup to a peer as an HTTP
// request.
func TestOneBackendLookupPerColdMiss(t *testing.T) {
	measure := func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	}
	b := newFakeBackend()
	key := CacheKey{Bench: "lookups", Threads: 4}
	// The first cold cache misses in the tier and measures; the second
	// finds what the first wrote through.
	for _, tier := range []string{"miss", "hit"} {
		c := NewTraceCache(4, 0)
		c.SetBackend(b)
		before, _ := b.counts()
		if _, err := c.Encoded(key, measure); err != nil {
			t.Fatal(err)
		}
		if gets, _ := b.counts(); gets-before != 1 {
			t.Errorf("tier %s: %d backend lookups, want 1", tier, gets-before)
		}
	}
}
