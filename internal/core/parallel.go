package core

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"extrap/internal/trace"
)

// CacheKey identifies one deterministic measurement run for memoization:
// the program (benchmark name plus any variant tag), its size
// parameters, the thread count, and the full measurement options. Two
// runs with equal keys produce byte-identical traces because the
// measurement runtime is seeded deterministically and programs take no
// other input.
type CacheKey struct {
	// Bench names the program; include any variant parameters that
	// change the program's behavior (e.g. a matmul distribution pair).
	Bench string
	// N and Iters are the problem-size parameters.
	N, Iters int
	// Verify records whether result verification ran (it changes the
	// instruction stream, hence the trace).
	Verify bool
	// Threads is the measured thread count.
	Threads int
	// Opts is the full measurement configuration.
	Opts MeasureOptions
}

// cacheEntry holds one memoized measurement as compact XTRP2 bytes,
// guarded by its own mutex so concurrent requests for the same key share
// one measurement run (singleflight) while requests for other keys
// proceed independently. The bytes are immutable, so aliasing between
// concurrent consumers is impossible by construction.
type cacheEntry struct {
	mu       sync.Mutex
	measured bool
	enc      []byte
	err      error
}

// lruNode is what the recency list holds: the key (for map removal on
// eviction) and its entry.
type lruNode struct {
	key CacheKey
	e   *cacheEntry
}

// TraceBackend is a durable tier behind a TraceCache (and behind a figure
// run's memo, experiments.Options.Backend): measurements the memory does
// not hold are looked up here as XTRP2 bytes, once per miss, before
// being re-measured, and fresh measurements are written through as
// XTRP2. internal/store implements it with a content-addressed on-disk
// store, addressing each trace under CacheKey.CanonicalFormat. An
// artifact a store wrote under an older address (CacheKey.Canonical) is
// never looked up, so its key misses, is re-measured (measurement is
// deterministic) and is stored as XTRP2.
//
// Both methods must be safe for concurrent use. GetTrace returns
// (payload, true) only for bytes it can vouch for (the store verifies
// checksums and treats corruption as a miss); PutTrace is best-effort —
// a write failure loses durability, never correctness, so it reports
// nothing here and is counted by the implementation instead.
type TraceBackend interface {
	GetTrace(key CacheKey, format trace.Format) ([]byte, bool)
	PutTrace(key CacheKey, format trace.Format, enc []byte)
}

// TraceCache memoizes measurements across the requests of a long-lived
// server: each distinct measurement runs once, is kept as compact
// immutable XTRP2 bytes read through Encoded, and is replayed by the
// streaming pipeline under every configuration that asks for it. The
// cache is bounded in entries and in bytes per trace, and writes fresh
// measurements through to a backend. A TraceCache is safe for
// concurrent use.
type TraceCache struct {
	mu      sync.Mutex
	max     int
	maxB    int64 // per-trace encoded-size budget (0 = unlimited)
	entries map[CacheKey]*list.Element
	order   *list.List // front = most recently used; values are *lruNode
	// flights tracks entries whose first measurement is still running,
	// keyed independently of the LRU so eviction pressure cannot detach
	// concurrent requests from an in-progress measurement (see entry).
	flights map[CacheKey]*cacheEntry
	backend TraceBackend
	lookups atomic.Int64
	misses  atomic.Int64
	// Compression accounting across fresh encodes: rawBytes is the flat
	// fixed-record baseline (trace.EncodedSize), encBytes what XTRP2
	// actually cost.
	rawBytes atomic.Int64
	encBytes atomic.Int64
}

// NewTraceCache returns an empty cache holding at most maxEntries
// distinct measurements, evicting the least recently used beyond that
// (maxEntries ≤ 0 means unbounded). Long-lived serving paths must use a
// bound: cache keys derive from client-controlled request parameters, so
// an unbounded cache lets a client iterating sizes grow server memory
// without limit. maxTraceBytes (> 0) rejects any measurement whose
// encoding exceeds the budget with trace.ErrTraceTooLarge. Resident size
// per entry is the loop-compacted encoding, and consumers decode their
// own streaming cursor from the immutable bytes, so a hit can never be
// mutated by another cell.
func NewTraceCache(maxEntries int, maxTraceBytes int64) *TraceCache {
	return &TraceCache{
		max:     maxEntries,
		maxB:    maxTraceBytes,
		entries: make(map[CacheKey]*list.Element),
		order:   list.New(),
		flights: make(map[CacheKey]*cacheEntry),
	}
}

// SetBackend attaches a durable tier behind the memory cache: misses
// consult the backend before re-measuring, and fresh measurements are
// written through as XTRP2 bytes. Attach the backend before the cache
// is shared across goroutines (typically right after construction); it
// must not change while lookups are running.
func (c *TraceCache) SetBackend(b TraceBackend) { c.backend = b }

// CompressionStats reports the cache's encoding economics across fresh
// measurements: RawBytes is the flat fixed-record baseline of 37 bytes
// per event (trace.EncodedSize), EncodedBytes what XTRP2 actually
// produced.
// Backend hits are excluded (their raw size is unknown without a
// decode).
type CompressionStats struct {
	RawBytes     int64
	EncodedBytes int64
}

// Compression returns the cache's compression accounting.
func (c *TraceCache) Compression() CompressionStats {
	return CompressionStats{RawBytes: c.rawBytes.Load(), EncodedBytes: c.encBytes.Load()}
}

// encode renders a fresh measurement as XTRP2, enforcing the per-trace
// budget on the actual encoding (its size depends on what the miner
// finds), and records the compression accounting for accepted bytes.
func (c *TraceCache) encode(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		return nil, err
	}
	if c.maxB > 0 && int64(buf.Len()) > c.maxB {
		return nil, fmt.Errorf("%w: %d encoded bytes, budget %d", trace.ErrTraceTooLarge, buf.Len(), c.maxB)
	}
	c.rawBytes.Add(trace.EncodedSize(tr.Header(), len(tr.Events)))
	c.encBytes.Add(int64(buf.Len()))
	return buf.Bytes(), nil
}

// entry returns (creating if needed) the entry for key, refreshing its
// recency and evicting the least recently used entry past the bound.
// An evicted entry stays valid for callers already holding it; its next
// lookup simply re-measures.
//
// Measurement is single-flight per key even under eviction pressure: a
// newly created entry is registered in c.flights until its first
// measurement attempt finishes (settle), so a concurrent request for the
// same key joins the in-progress run even if the LRU has already evicted
// the entry — without the flights map, N concurrent misses could run up
// to N identical measurements whenever churn on other keys pushes the
// shared entry out between their lookups.
func (c *TraceCache) entry(key CacheKey) *cacheEntry {
	c.lookups.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruNode).e
	}
	if e, ok := c.flights[key]; ok {
		return e
	}
	e := &cacheEntry{}
	c.flights[key] = e
	c.entries[key] = c.order.PushFront(&lruNode{key: key, e: e})
	if c.max > 0 && c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruNode).key)
	}
	return e
}

// settle unregisters an entry's flight after its first measurement
// attempt completes — successfully, with a memoized failure, or with a
// non-memoized context abort (leaving an aborted flight registered would
// leak one map entry per never-retried key).
func (c *TraceCache) settle(key CacheKey, e *cacheEntry) {
	c.mu.Lock()
	if c.flights[key] == e {
		delete(c.flights, key)
	}
	c.mu.Unlock()
}

// Encoded returns the memoized measurement for key as immutable XTRP2
// bytes, running measure on first use. Concurrent callers with the same
// key block until the single measurement completes and then share its
// bytes.
//
// A configured backend is consulted before measuring (the stored
// artifact IS the encoded form, so a durable hit costs one compile and
// no decode), and fresh encodings are written through. The measured
// trace is immediately encoded and released — only the compact bytes
// stay resident. A backend artifact that does not compile (a peer's
// bytes past MaxTraceEvents, a format skew, malformed bytes) is a miss:
// the key is re-measured and the fresh encoding written through.
//
// Context cancellations are NOT memoized: an aborted measurement
// returns its error to that caller only, and the next caller re-runs the
// measurement under its own deadline — one impatient request never
// poisons the cache for everyone else. Deterministic failures (bad
// program, malformed trace) are memoized like successes, and so is a
// trace past the size budget, as trace.ErrTraceTooLarge: the
// measurement is deterministic, so it would exceed the budget every time
// — including one arriving from the backend, whose encoded size is just
// as deterministic.
func (c *TraceCache) Encoded(key CacheKey, measure func() (*trace.Trace, error)) ([]byte, error) {
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.measured {
		return e.enc, e.err
	}
	if c.backend != nil {
		if enc, ok := c.backend.GetTrace(key, trace.FormatXTRP2); ok {
			if c.maxB > 0 && int64(len(enc)) > c.maxB {
				e.err, e.measured = fmt.Errorf("%w: %d encoded bytes, budget %d", trace.ErrTraceTooLarge, len(enc), c.maxB), true
				c.settle(key, e)
				return nil, e.err
			}
			if ct, err := trace.CompileBinary(enc); err == nil {
				ct.Release()
				e.enc, e.measured = enc, true
				c.settle(key, e)
				return e.enc, nil
			}
		}
	}
	c.misses.Add(1)
	tr, err := measure()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.settle(key, e)
		return nil, err
	}
	if err == nil {
		e.enc, err = c.encode(tr)
	}
	e.err, e.measured = err, true
	if e.err == nil && c.backend != nil {
		c.backend.PutTrace(key, trace.FormatXTRP2, e.enc)
	}
	c.settle(key, e)
	return e.enc, e.err
}

// Stats reports cache effectiveness: misses is the number of
// measurement runs performed, and hits the number of lookups that ran
// none — served from memory or from the backend, a memoized refusal
// included.
func (c *TraceCache) Stats() (hits, misses int64) {
	m := c.misses.Load()
	return c.lookups.Load() - m, m
}
