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
// is written through. Like the real store, it keys each trace format
// separately via CanonicalFormat.
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
	return b.storedFormat(key, trace.FormatXTRP2)
}

func (b *fakeBackend) storedFormat(key CacheKey, format trace.Format) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	enc, ok := b.data[key.CanonicalFormat(format)]
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
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeTrace2(t *testing.T, tr *trace.Trace) []byte {
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
	c := NewBoundedTraceCache(1)
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
	c := NewBoundedTraceCache(1)
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
	results := make([]*trace.Trace, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr, err := c.Measure(key, measure)
		if err != nil {
			t.Error(err)
		}
		results[0] = tr
	}()
	<-started

	// Evict the in-flight entry, then issue a second request for it.
	if _, err := c.Measure(CacheKey{Bench: "churn", Threads: 2}, func() (*trace.Trace, error) {
		return Measure(testProgram(2), MeasureOptions{})
	}); err != nil {
		t.Fatal(err)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		tr, err := c.Measure(key, measure)
		if err != nil {
			t.Error(err)
		}
		results[1] = tr
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
	if results[0] != results[1] {
		t.Error("concurrent requests did not share the single measurement's trace")
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
	c := NewBoundedTraceCache(2)
	key := CacheKey{Bench: "abort", Threads: 2}
	var calls int
	if _, err := c.Measure(key, func() (*trace.Trace, error) {
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
	if _, err := c.Measure(key, func() (*trace.Trace, error) {
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
// backend as decodable XTRP2 bytes matching the trace's own encoding.
func TestBackendWriteThrough(t *testing.T) {
	b := newFakeBackend()
	c := NewTraceCache()
	c.SetBackend(b)
	key := CacheKey{Bench: "wt", Threads: 4}
	tr, err := c.Measure(key, func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, ok := b.stored(key)
	if !ok {
		t.Fatal("fresh measurement was not written through to the backend")
	}
	if want := encodeTrace2(t, tr); !bytes.Equal(enc, want) {
		t.Error("backend bytes differ from the trace's own XTRP2 encoding")
	}
	if _, err := trace.ReadBinary2(enc); err != nil {
		t.Fatalf("backend bytes do not decode: %v", err)
	}
}

// TestBackendServesColdCache: a cold cache sharing the backend serves
// the durable artifact instead of re-measuring, in both plain and
// encoded modes, with byte-identical results.
func TestBackendServesColdCache(t *testing.T) {
	b := newFakeBackend()
	warm := NewTraceCache()
	warm.SetBackend(b)
	key := CacheKey{Bench: "cold", Threads: 4}
	measure := func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	}
	warmTr, err := warm.Measure(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeTrace(t, warmTr)

	cold := NewTraceCache()
	cold.SetBackend(b)
	coldTr, err := cold.Measure(key, func() (*trace.Trace, error) {
		t.Error("cold cache re-measured despite a backend hit")
		return measure()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeTrace(t, coldTr); !bytes.Equal(got, want) {
		t.Error("plain-mode backend hit decoded to a different trace")
	}
	if _, misses := cold.Stats(); misses != 0 {
		t.Errorf("cold cache recorded %d measurement misses, want 0", misses)
	}

	coldEnc := NewEncodedTraceCache(4, 0)
	coldEnc.SetBackend(b)
	enc, err := coldEnc.Encoded(key, func() (*trace.Trace, error) {
		t.Error("encoded cold cache re-measured despite a backend hit")
		return measure()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, encodeTrace2(t, warmTr)) {
		t.Error("encoded-mode backend hit returned different bytes")
	}
}

// TestEncodedWriteThroughAndBudget: encoded mode writes fresh encodings
// through, and a backend artifact exceeding the per-trace budget is
// memoized as ErrTraceTooLarge — deterministically too large, never
// half-served.
func TestEncodedWriteThroughAndBudget(t *testing.T) {
	b := newFakeBackend()
	warm := NewEncodedTraceCache(4, 0)
	warm.SetBackend(b)
	key := CacheKey{Bench: "budget", Threads: 4}
	enc, err := warm.Encoded(key, func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := b.stored(key)
	if !ok {
		t.Fatal("encoded measurement was not written through")
	}
	if !bytes.Equal(stored, enc) {
		t.Error("written-through bytes differ from the served encoding")
	}

	before, _ := b.counts()
	tight := NewEncodedTraceCache(4, int64(len(enc))-1)
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
// key and serves them back to a cold cache. A store's pre-migration
// XTRP1 artifact is never read: its measurement is re-run, with the
// same trace, and written through under the v2 key, in both cache
// modes.
func TestXTRP2CacheFormat(t *testing.T) {
	b := newFakeBackend()
	warm := NewEncodedTraceCache(4, 0)
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
	if _, ok := b.storedFormat(key, trace.FormatXTRP2); !ok {
		t.Fatal("fresh XTRP2 encoding was not written through under the v2 key")
	}
	if _, ok := b.storedFormat(key, trace.FormatXTRP1); ok {
		t.Fatal("cache wrote an artifact under the v1 key")
	}
	cs := warm.Compression()
	if cs.RawBytes <= 0 || cs.EncodedBytes <= 0 {
		t.Fatalf("compression stats did not advance: %+v", cs)
	}

	cold := NewEncodedTraceCache(4, 0)
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

	// A store holding only the XTRP1 artifact (written before the format
	// migration): both cache modes miss, re-measure once, and write the
	// same trace through as XTRP2.
	tr, err := measure()
	if err != nil {
		t.Fatal(err)
	}
	for _, encoded := range []bool{true, false} {
		old := newFakeBackend()
		old.PutTrace(key, trace.FormatXTRP1, encodeTrace(t, tr))
		c := NewTraceCache()
		if encoded {
			c = NewEncodedTraceCache(4, 0)
		}
		c.SetBackend(old)
		var got *trace.Trace
		if encoded {
			enc, err := c.Encoded(key, measure)
			if err != nil {
				t.Fatal(err)
			}
			if got, err = trace.ReadBinary2(enc); err != nil {
				t.Fatal(err)
			}
		} else if got, err = c.Measure(key, measure); err != nil {
			t.Fatal(err)
		}
		if _, misses := c.Stats(); misses != 1 {
			t.Errorf("encoded=%v: %d measurements over a pre-migration artifact, want 1", encoded, misses)
		}
		if !bytes.Equal(encodeTrace(t, got), encodeTrace(t, tr)) {
			t.Errorf("encoded=%v: re-measured trace differs from the pre-migration one", encoded)
		}
		if v2, ok := old.stored(key); !ok || !bytes.Equal(v2, encodeTrace2(t, tr)) {
			t.Errorf("encoded=%v: re-measured trace not written through under the v2 key", encoded)
		}
	}
}

// TestOneBackendLookupPerColdMiss: a cold cache consults the durable
// tier once per lookup, under the XTRP2 key, in both cache modes,
// whether the tier answers or not — a clustered worker forwards each
// lookup to a peer as an HTTP request.
func TestOneBackendLookupPerColdMiss(t *testing.T) {
	measure := func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	}
	b := newFakeBackend()
	for _, encoded := range []bool{true, false} {
		key := CacheKey{Bench: "lookups", Threads: 4, Verify: encoded}
		// The first cold cache misses in the tier and measures; the
		// second finds what the first wrote through.
		for _, tier := range []string{"miss", "hit"} {
			c := NewTraceCache()
			if encoded {
				c = NewEncodedTraceCache(4, 0)
			}
			c.SetBackend(b)
			before, _ := b.counts()
			var err error
			if encoded {
				_, err = c.Encoded(key, measure)
			} else {
				_, err = c.Measure(key, measure)
			}
			if err != nil {
				t.Fatal(err)
			}
			if gets, _ := b.counts(); gets-before != 1 {
				t.Errorf("encoded=%v, tier %s: %d backend lookups, want 1", encoded, tier, gets-before)
			}
		}
	}
}
