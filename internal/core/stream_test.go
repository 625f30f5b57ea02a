package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
)

// inMemory is the in-memory pipeline oracle the streaming pipeline is
// checked against: the whole measurement translated into a materialized
// parallel trace, then simulated.
func inMemory(t *testing.T, tr *trace.Trace, cfg sim.Config) (*translate.ParallelTrace, *sim.Result) {
	t.Helper()
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pt, res
}

// TestExtrapolateReaderMatchesInMemory: the streaming pipeline's
// prediction must equal the in-memory pipeline's, field for field,
// including the emitted trace byte for byte.
func TestExtrapolateReaderMatchesInMemory(t *testing.T) {
	tr, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := freeConfig()
	cfg.EmitTrace = true
	pt, want := inMemory(t, tr, cfg)
	got, err := ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Measured1P != tr.Duration() {
		t.Errorf("Measured1P = %v, want %v", got.Measured1P, tr.Duration())
	}
	if got.Ideal != pt.Duration() {
		t.Errorf("Ideal = %v, want %v", got.Ideal, pt.Duration())
	}
	var wantTrace, gotTrace bytes.Buffer
	if err := trace.WriteBinary(&wantTrace, want.Trace); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&gotTrace, got.Result.Trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantTrace.Bytes(), gotTrace.Bytes()) {
		t.Error("emitted traces differ between streaming and in-memory pipelines")
	}
	wantRes, gotRes := *want, *got.Result
	wantRes.Trace, gotRes.Trace = nil, nil
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Errorf("results differ:\nin-memory: %+v\nstreaming: %+v", wantRes, gotRes)
	}
}

// TestExtrapolateEncodedMatches: decode → translate → simulate from the
// compact bytes gives the same prediction, and bytes of any other
// format are refused.
func TestExtrapolateEncodedMatches(t *testing.T) {
	tr, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := trace.WriteBinary2(&enc, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtrapolateEncoded(context.Background(), encodeTrace(t, tr), freeConfig()); err != trace.ErrBadMagic {
		t.Fatalf("XTRP1 bytes: err = %v, want trace.ErrBadMagic", err)
	}
	_, want := inMemory(t, tr, freeConfig())
	got, err := ExtrapolateEncoded(context.Background(), enc.Bytes(), freeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want) {
		t.Errorf("results differ:\nin-memory: %+v\nstreaming: %+v", want, got.Result)
	}
	if got.Measured1P != tr.Duration() {
		t.Errorf("Measured1P = %v, want %v", got.Measured1P, tr.Duration())
	}
}

// TestEncodedCachePurity: concurrent sweep cells extrapolating from one
// cached entry must agree, and the cached bytes must be bit-identical
// before and after — the aliasing guarantee of the encoded cache. Under
// -race this also proves the hit path is data-race free.
func TestEncodedCachePurity(t *testing.T) {
	c := NewEncodedTraceCache(4, 0)
	key := CacheKey{Bench: "test", Threads: 4}
	measure := func() (*trace.Trace, error) { return Measure(testProgram(4), MeasureOptions{}) }

	enc, err := c.Encoded(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), enc...)

	want, err := ExtrapolateEncoded(context.Background(), enc, freeConfig())
	if err != nil {
		t.Fatal(err)
	}

	const cells = 8
	var wg sync.WaitGroup
	for g := 0; g < cells; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := freeConfig()
			if i%2 == 1 {
				cfg.MipsRatio = 0.5
			}
			enc, err := c.Encoded(key, measure)
			if err != nil {
				t.Error(err)
				return
			}
			p, err := ExtrapolateEncoded(context.Background(), enc, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 && p.Result.TotalTime != want.Result.TotalTime {
				t.Errorf("cell %d: TotalTime %v, want %v", i, p.Result.TotalTime, want.Result.TotalTime)
			}
		}(g)
	}
	wg.Wait()

	after, err := c.Encoded(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("cached encoded trace changed while cells consumed it")
	}
	if hits, misses := c.Stats(); misses != 1 {
		t.Errorf("misses = %d (hits %d), want exactly one measurement", misses, hits)
	}
}

// TestSharedCacheHitPurity is the same guarantee for the shared
// (in-memory) cache: two cells simulating one cached translation must
// leave the cached measurement bit-identical.
func TestSharedCacheHitPurity(t *testing.T) {
	c := NewTraceCache()
	key := CacheKey{Bench: "test", Threads: 4}
	measure := func() (*trace.Trace, error) { return Measure(testProgram(4), MeasureOptions{}) }

	tr, err := c.Measure(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := trace.WriteBinary(&before, tr); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pt, err := c.Translated(key, measure)
			if err != nil {
				t.Error(err)
				return
			}
			cfg := freeConfig()
			if i%2 == 1 {
				cfg.MipsRatio = 2
			}
			if _, err := sim.Simulate(context.Background(), pt, cfg); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()

	after, err := c.Measure(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	var afterBuf bytes.Buffer
	if err := trace.WriteBinary(&afterBuf, after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), afterBuf.Bytes()) {
		t.Fatal("cached measurement mutated by concurrent cells")
	}
}

// TestEncodedCacheMeasureCopies: a trace decoded from an encoded cache's
// bytes is a private copy — mutating it never corrupts later hits,
// because the cache only ever hands out the immutable encoding.
func TestEncodedCacheMeasureCopies(t *testing.T) {
	c := NewEncodedTraceCache(4, 0)
	key := CacheKey{Bench: "test", Threads: 4}
	measure := func() (*trace.Trace, error) { return Measure(testProgram(4), MeasureOptions{}) }
	decode := func() *trace.Trace {
		enc, err := c.Encoded(key, measure)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadBinary2(enc)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	first := decode()
	want := first.Events[0]
	first.Events[0].Time += 999 // vandalize the copy

	if second := decode(); second.Events[0] != want {
		t.Fatal("mutating one decoded copy leaked into the cache")
	}
}

// TestEncodedCacheTraceTooLarge: a measurement whose encoding exceeds
// the budget is rejected with ErrTraceTooLarge, and the failure is
// memoized like any deterministic outcome.
func TestEncodedCacheTraceTooLarge(t *testing.T) {
	c := NewEncodedTraceCache(4, 64) // smaller than any real header+events
	key := CacheKey{Bench: "test", Threads: 4}
	measure := func() (*trace.Trace, error) { return Measure(testProgram(4), MeasureOptions{}) }
	for i := 0; i < 2; i++ {
		if _, err := c.Encoded(key, measure); !errors.Is(err, trace.ErrTraceTooLarge) {
			t.Fatalf("call %d: err = %v, want ErrTraceTooLarge", i, err)
		}
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Errorf("misses = %d, want 1 (failure memoized)", misses)
	}
}

// TestEncodedOnNonEncodedCache: misuse is an error, not silent decay —
// in either direction.
func TestEncodedOnNonEncodedCache(t *testing.T) {
	c := NewTraceCache()
	if _, err := c.Encoded(CacheKey{Bench: "x"}, nil); err == nil {
		t.Fatal("Encoded on shared cache succeeded")
	}
	enc := NewEncodedTraceCache(1, 0)
	if _, err := enc.Measure(CacheKey{Bench: "x"}, nil); err == nil {
		t.Fatal("Measure on encoded cache succeeded")
	}
	if _, err := enc.Translated(CacheKey{Bench: "x"}, nil); err == nil {
		t.Fatal("Translated on encoded cache succeeded")
	}
	if c.Streams() {
		t.Fatal("shared cache claims to stream")
	}
	if !NewEncodedTraceCache(1, 0).Streams() {
		t.Fatal("encoded cache does not claim to stream")
	}
}
