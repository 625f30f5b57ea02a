package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"extrap/internal/trace"
)

// TestTraceCacheSingleflight: concurrent lookups of one key run the
// measurement exactly once and share the resulting bytes.
func TestTraceCacheSingleflight(t *testing.T) {
	c := NewTraceCache(0, 0)
	key := CacheKey{Bench: "test", N: 8, Iters: 3, Threads: 4}
	var calls int
	var mu sync.Mutex
	measure := func() (*trace.Trace, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return Measure(testProgram(4), MeasureOptions{})
	}

	const goroutines = 8
	got := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			enc, err := c.Encoded(key, measure)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = enc
		}(g)
	}
	wg.Wait()

	if calls != 1 {
		t.Errorf("measurement ran %d times, want 1", calls)
	}
	for g := 1; g < goroutines; g++ {
		if &got[g][0] != &got[0][0] {
			t.Errorf("goroutine %d got different bytes", g)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Errorf("Stats() = %d hits, %d misses; want %d, 1", hits, misses, goroutines-1)
	}
}

// TestTraceCacheKeysDistinct: distinct keys are measured independently,
// and a measure error is surfaced.
func TestTraceCacheKeysDistinct(t *testing.T) {
	c := NewTraceCache(0, 0)
	for _, threads := range []int{2, 4, 2, 4, 2} {
		_, err := c.Encoded(CacheKey{Bench: "test", Threads: threads}, func() (*trace.Trace, error) {
			return Measure(testProgram(threads), MeasureOptions{})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := c.Stats()
	if misses != 2 || hits != 3 {
		t.Errorf("Stats() = %d hits, %d misses; want 3, 2", hits, misses)
	}

	boom := errors.New("measure failed")
	if _, err := c.Encoded(CacheKey{Bench: "bad"}, func() (*trace.Trace, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Errorf("got %v, want %v", err, boom)
	}
}

// TestBoundedTraceCacheEvictsLRU: past the bound, the least recently
// used entry is evicted and a later lookup for it re-measures.
func TestBoundedTraceCacheEvictsLRU(t *testing.T) {
	c := NewTraceCache(2, 0)
	var calls int
	measureFor := func(threads int) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) {
			calls++
			return Measure(testProgram(threads), MeasureOptions{})
		}
	}
	keyA := CacheKey{Bench: "test", Threads: 2}
	keyB := CacheKey{Bench: "test", Threads: 3}
	keyC := CacheKey{Bench: "test", Threads: 4}

	mustMeasure := func(key CacheKey, threads int) {
		t.Helper()
		if _, err := c.Encoded(key, measureFor(threads)); err != nil {
			t.Fatal(err)
		}
	}
	mustMeasure(keyA, 2) // cache: A
	mustMeasure(keyB, 3) // cache: B, A
	mustMeasure(keyA, 2) // hit; cache: A, B
	if calls != 2 {
		t.Fatalf("calls = %d before eviction, want 2", calls)
	}
	mustMeasure(keyC, 4) // evicts B (LRU); cache: C, A
	mustMeasure(keyA, 2) // still cached
	if calls != 3 {
		t.Fatalf("calls = %d after A re-lookup, want 3 (A retained)", calls)
	}
	mustMeasure(keyB, 3) // evicted, must re-measure
	if calls != 4 {
		t.Fatalf("calls = %d after B re-lookup, want 4 (B was evicted)", calls)
	}
}

// TestTraceCacheDoesNotMemoizeContextErrors: a measurement aborted by a
// caller's deadline or cancellation must not poison the cache — the
// next caller re-runs it and gets the real trace.
func TestTraceCacheDoesNotMemoizeContextErrors(t *testing.T) {
	c := NewTraceCache(0, 0)
	for _, abort := range []error{fmt.Errorf("measuring: %w", context.DeadlineExceeded), context.Canceled} {
		key := CacheKey{Bench: abort.Error(), Threads: 4}
		if _, err := c.Encoded(key, func() (*trace.Trace, error) {
			return nil, abort
		}); !errors.Is(err, abort) {
			t.Fatalf("first lookup error = %v, want %v", err, abort)
		}
		enc, err := c.Encoded(key, func() (*trace.Trace, error) {
			return Measure(testProgram(4), MeasureOptions{})
		})
		if err != nil || len(enc) == 0 {
			t.Fatalf("retry after %v = (%d bytes, %v), want a real trace", abort, len(enc), err)
		}
	}
}
