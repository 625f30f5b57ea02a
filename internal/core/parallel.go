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
	"extrap/internal/translate"
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

// cacheEntry holds one memoized measurement and its lazily computed
// translation, guarded by its own mutex so concurrent requests for the
// same key share one measurement run (singleflight) while requests for
// other keys proceed independently. In an encoded cache, enc holds the
// compact binary trace instead of tr: bytes are immutable, so aliasing
// between concurrent consumers is impossible by construction.
type cacheEntry struct {
	mu         sync.Mutex
	measured   bool
	tr         *trace.Trace
	enc        []byte
	err        error
	translated bool
	pt         *translate.ParallelTrace
	terr       error
}

// lruNode is what the recency list holds: the key (for map removal on
// eviction) and its entry.
type lruNode struct {
	key CacheKey
	e   *cacheEntry
}

// TraceBackend is a durable tier behind a TraceCache: measurements the
// memory cache does not hold are looked up here as XTRP2 bytes, once per
// miss, before being re-measured, and fresh measurements are written
// through as XTRP2. internal/store implements it with a
// content-addressed on-disk store, addressing each trace under
// CacheKey.CanonicalFormat. An artifact a store wrote under an older
// address (CacheKey.Canonical) is never looked up, so its key misses,
// is re-measured (measurement is deterministic) and is stored as XTRP2.
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

// TraceCache memoizes measurement traces across the cells of a
// parameter grid. Grids vary only the simulation Config between cells,
// so each distinct measurement runs once and is then simulated under
// every configuration. It has two modes serving two callers:
//
//   - in-memory (NewTraceCache, NewBoundedTraceCache): shared
//     *trace.Trace values and their memoized translations, read through
//     Measure and Translated — the experiment grids' shape. Sharing is
//     safe because Translate and Simulate treat their inputs as
//     read-only (a guard test enforces this); callers must not mutate
//     what they get.
//   - encoded (NewEncodedTraceCache): compact immutable XTRP2 bytes,
//     read through Encoded and replayed by the streaming pipeline — the
//     bounded-memory server's shape.
//
// Either mode writes fresh measurements through to a backend as XTRP2.
// A TraceCache is safe for concurrent use.
type TraceCache struct {
	mu      sync.Mutex
	max     int
	encoded bool  // cache compact encoded bytes instead of shared traces
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

// NewTraceCache returns an empty unbounded cache — the right shape for a
// one-shot experiment run, whose key population is fixed by the grid.
func NewTraceCache() *TraceCache {
	return NewBoundedTraceCache(0)
}

// NewBoundedTraceCache returns a cache holding at most maxEntries
// distinct measurements, evicting the least recently used beyond that
// (maxEntries ≤ 0 means unbounded). Long-lived serving paths must use a
// bound: cache keys derive from client-controlled request parameters, so
// an unbounded cache lets a client iterating sizes grow server memory
// without limit.
func NewBoundedTraceCache(maxEntries int) *TraceCache {
	return &TraceCache{
		max:     maxEntries,
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

// NewEncodedTraceCache returns a bounded cache that stores measurements
// as compact XTRP2 bytes rather than live *trace.Trace values.
// Consumers decode their own streaming cursor from the immutable bytes,
// so a hit can never be mutated by another cell, and resident size per
// entry is the loop-compacted encoding instead of the in-memory event
// slice plus translation. maxTraceBytes (> 0) rejects any measurement
// whose encoding exceeds the budget with trace.ErrTraceTooLarge.
func NewEncodedTraceCache(maxEntries int, maxTraceBytes int64) *TraceCache {
	c := NewBoundedTraceCache(maxEntries)
	c.encoded = true
	c.maxB = maxTraceBytes
	return c
}

// Streams reports whether the cache stores encoded bytes (the streaming
// serving mode) rather than shared in-memory traces.
func (c *TraceCache) Streams() bool { return c.encoded }

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

// Len reports the number of entries currently cached.
func (c *TraceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// measure runs or reuses the memoized measurement; the caller holds
// e.mu. A configured backend is consulted before measuring — a durable
// hit decodes the stored bytes instead of re-running the program — and
// fresh measurements are written through. Context cancellations are NOT
// memoized: an aborted measurement returns its error to that caller
// only, and the next caller re-runs the measurement under its own
// deadline — one impatient request never poisons the cache for everyone
// else. Deterministic failures (bad program, malformed trace) are
// memoized like successes.
func (c *TraceCache) measureLocked(key CacheKey, e *cacheEntry, measure func() (*trace.Trace, error)) (*trace.Trace, error) {
	if e.measured {
		return e.tr, e.err
	}
	if c.backend != nil {
		if enc, ok := c.backend.GetTrace(key, trace.FormatXTRP2); ok {
			if tr, err := trace.ReadBinary2(enc); err == nil {
				e.tr, e.err, e.measured = tr, nil, true
				c.settle(key, e)
				return e.tr, nil
			}
			// An artifact that passed the store's checksum but fails to
			// decode means a format skew, not corruption; fall through to
			// a fresh measurement (and overwrite it below).
		}
	}
	c.misses.Add(1)
	tr, err := measure()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.settle(key, e)
		return nil, err
	}
	e.tr, e.err, e.measured = tr, err, true
	if err == nil && c.backend != nil {
		if enc, werr := c.encode(tr); werr == nil {
			c.backend.PutTrace(key, trace.FormatXTRP2, enc)
		}
	}
	c.settle(key, e)
	return e.tr, e.err
}

// encodedLocked runs or reuses the memoized measurement in encoded form;
// the caller holds e.mu. A configured backend is consulted before
// measuring (the stored artifact IS the encoded form, so a durable hit
// costs one compile and no decode), and fresh encodings are written
// through. The measured trace is immediately encoded and released — only
// the compact immutable bytes stay resident. A trace past the size
// budget is memoized as a trace.ErrTraceTooLarge failure (the
// measurement is deterministic, so it would exceed the budget every
// time) — including one arriving from the backend, whose encoded size is
// just as deterministic. A backend artifact that does not compile (a
// peer's bytes past MaxTraceEvents, a format skew, malformed bytes) is a
// miss: the key is re-measured and the artifact overwritten.
func (c *TraceCache) encodedLocked(key CacheKey, e *cacheEntry, measure func() (*trace.Trace, error)) ([]byte, error) {
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

// Encoded returns the memoized measurement for key as immutable XTRP2
// bytes, running measure on first use. Valid only on an encoded cache.
func (c *TraceCache) Encoded(key CacheKey, measure func() (*trace.Trace, error)) ([]byte, error) {
	if !c.encoded {
		return nil, errors.New("core: Encoded called on a non-encoded TraceCache")
	}
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	return c.encodedLocked(key, e, measure)
}

// Measure returns the memoized measurement trace for key, running
// measure on first use. Concurrent callers with the same key block until
// the single measurement completes and then share its trace. Valid only
// on an in-memory cache.
func (c *TraceCache) Measure(key CacheKey, measure func() (*trace.Trace, error)) (*trace.Trace, error) {
	if c.encoded {
		return nil, errors.New("core: Measure called on an encoded TraceCache")
	}
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	return c.measureLocked(key, e, measure)
}

// Translated returns the memoized translation of the measurement for
// key, measuring and translating on first use. Valid only on an
// in-memory cache.
func (c *TraceCache) Translated(key CacheKey, measure func() (*trace.Trace, error)) (*translate.ParallelTrace, error) {
	if c.encoded {
		return nil, errors.New("core: Translated called on an encoded TraceCache")
	}
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	tr, err := c.measureLocked(key, e, measure)
	if err != nil {
		return nil, err
	}
	if !e.translated {
		e.pt, e.terr = translate.Translate(tr)
		e.translated = true
	}
	return e.pt, e.terr
}

// Stats reports cache effectiveness: hits is the number of lookups
// served from memory, misses the number of measurement runs performed.
func (c *TraceCache) Stats() (hits, misses int64) {
	m := c.misses.Load()
	return c.lookups.Load() - m, m
}
