// Package store implements a content-addressed, checksummed, on-disk
// artifact store for the expensive products of the extrapolation
// pipeline: encoded measurement traces and serialized prediction
// results. It is the durable tier behind the server's core.TraceCache
// and behind a figure run's memo (experiment -store) — memory in front,
// disk behind, one measurement pipeline — so a restarted server (or a
// repeated CLI run pointed at the same directory) replays work it has
// already done at disk speed instead of re-simulating it.
//
// # Key scheme
//
// Artifacts are addressed by content of their INPUTS, not of their
// bytes: the address is the SHA-256 of a canonical string spelling out
// every input that determines the artifact. The canonical encodings are
// version-locked in internal/core:
//
//   - "trace/v2|bench=…|n=…|iters=…|verify=…|threads=…|flop=…|…|seed=…"
//     (core.CacheKey.CanonicalFormat) addresses the XTRP2 trace of one
//     deterministic measurement run — program identity, size
//     parameters, thread count, and the full measurement options.
//   - "cfg/v1|procs=…|mips=…|policy=…|comm=…|barrier=…|…"
//     (core.CanonicalConfig) encodes one simulation configuration.
//   - "pred/v1|<trace/v1…>|<cfg/v1…>" (core.CanonicalPrediction)
//     addresses one prediction: a pure function of (measurement,
//     configuration). Its trace/v1 part (core.CacheKey.Canonical)
//     spells the same fields as trace/v2.
//
// Because measurement and simulation are seeded and deterministic,
// equal canonical strings imply byte-identical artifacts; the store
// never has to compare payloads to decide freshness. A Put of a
// resident key only compares payload checksums, so an artifact whose
// reader refused it and recomputed it replaces the refused bytes. The
// flip side is that the canonical encoding is a compatibility contract:
// changing it orphans every artifact ever written. A golden test in this
// package locks the format against committed fixtures; bump the
// embedded version component ("/v1") to migrate deliberately.
//
// # On-disk layout
//
//	<dir>/segments/<n>.seg          append-only XART1 records, n in creation order
//	<dir>/quarantine/<hash>.art     records that failed verification
//	<dir>/quarantine/<n>-<off>.tail bytes cut from a segment's torn tail
//	<dir>/index                     advisory recency index (see index.go)
//	<dir>/lock                      held locked by the open Store
//
// Each record binds itself to its key and payload: magic "XART1", the
// 32-byte key hash, the payload length, the payload's own SHA-256, then
// the payload. A Put builds the record and appends it to the active
// segment with a single write; the active segment rolls over to a new
// file once it reaches segmentBytes. Appends assume a single writer, so
// a directory belongs to one open Store at a time: Open takes an
// exclusive lock on <dir>/lock, held until Close, and a second Open of
// the directory fails while it is held, from this process or another.
// A Get reads the record back with one ReadAt and re-verifies all of
// it; any mismatch (truncation, flipped byte, wrong key) drops the
// artifact, copies the bytes read to quarantine/ and reports a miss, so
// a corrupt artifact is recomputed and never served.
//
// Open walks every segment's record headers in order; payloads are
// verified on read, not at Open. A record that is short or structurally
// invalid ends its segment, as the torn tail of a write cut by a crash
// would: the segment is truncated there and the cut bytes move to
// quarantine/, so every segment stays a sequence of whole records. A
// later record of a hash supersedes an earlier one.
//
// Eviction is LRU per record and only forgets the record; the bytes
// stay in their segment as dead space. The background goroutine deletes
// a sealed segment once no resident artifact lives in it, and compacts
// one that is less than half live by re-appending its live records,
// verified, to the active segment — except, under a byte budget, the
// segment holding the least recently used artifact, which eviction is
// already draining.
//
// The index is advisory: it persists LRU recency so eviction order
// survives restarts, but the segment scan on Open is the source of
// truth for which artifacts exist. A missing or corrupt index is
// rebuilt, never trusted.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"extrap/internal/core"
	"extrap/internal/trace"
)

const (
	// flushInterval is how often the background goroutine persists a
	// dirty index. Close always flushes, so the interval only bounds
	// how much recency information a crash can lose — and the index is
	// advisory anyway.
	flushInterval = 2 * time.Second

	// segmentBytes is the size at which the active segment is sealed
	// and a new one started. Large enough that creating a file is rare
	// next to appending to one; small enough that compaction rewrites
	// little at a time.
	segmentBytes = 8 << 20

	// maxPooledRecord bounds the record buffers Put keeps for reuse; a
	// larger one is left to the collector rather than kept alive.
	maxPooledRecord = 1 << 20
)

// object is one resident artifact's bookkeeping: its content address,
// its record's size and location, and its recency stamp (persisted in
// the index so eviction order survives restarts).
type object struct {
	hash [32]byte
	size int64
	seq  uint64
	seg  *segment
	off  int64
}

// Stats is a point-in-time snapshot of store traffic and occupancy.
type Stats struct {
	Hits           int64 // Get served a verified artifact
	Misses         int64 // Get found nothing (or nothing servable)
	Evictions      int64 // artifacts removed by the byte-budget LRU
	Corruptions    int64 // artifacts that failed verification and were quarantined
	Puts           int64 // artifacts written
	PutErrors      int64 // writes that failed (durability lost, correctness kept)
	Objects        int64 // artifacts currently resident
	Bytes          int64 // total record bytes of resident artifacts
	Segments       int64 // segment files on disk
	DeadBytes      int64 // segment bytes no resident artifact holds
	CompactedBytes int64 // record bytes rewritten by compaction
}

// Store is a content-addressed artifact store with an LRU byte budget.
// It is safe for concurrent use and implements core.TraceBackend, so it
// plugs directly behind a TraceCache via SetBackend, or behind a figure
// run as experiments.Options.Backend.
type Store struct {
	dir       string
	maxBytes  int64    // 0 = unlimited
	rollBytes int64    // active segment size that starts a new one
	lock      *os.File // holds the directory lock; nil where locking is a no-op

	// wmu serializes appends. Fields marked "wmu+mu" are written only
	// holding both locks and may be read holding either. Lock order:
	// wmu before mu.
	wmu sync.Mutex

	mu       sync.Mutex
	objects  map[[32]byte]*list.Element
	order    *list.List // front = most recently used; values are *object
	bytes    int64      // record bytes of resident artifacts
	segs     []*segment // every segment on disk, in creation order
	segBytes int64      // record bytes of every segment
	active   *segment   // wmu+mu; nil until the first append
	nextSeg  uint64     // wmu+mu; id of the next segment to create
	seq      uint64
	dirty    bool
	closed   bool // wmu+mu

	evictCh chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	corruptions atomic.Int64
	puts        atomic.Int64
	putErrors   atomic.Int64
	compacted   atomic.Int64
}

// Open opens (creating if needed) the artifact store rooted at dir,
// keeping at most maxBytes of artifacts on disk (0 = unlimited). It
// locks the directory, failing with an error naming it if another Store
// holds it, scans the segments, applies the advisory index's recency,
// and starts the background eviction, compaction and flush goroutine.
// Call Close to stop the goroutine, persist the index and release the
// lock.
func Open(dir string, maxBytes int64) (*Store, error) {
	return open(dir, maxBytes, segmentBytes)
}

// open is Open with the rollover size as a parameter, so tests can
// exercise rollover and compaction on small stores.
func open(dir string, maxBytes, rollBytes int64) (*Store, error) {
	for _, sub := range []string{segmentsDirName, quarantineDirName} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: create %s: %w", sub, err)
		}
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		maxBytes:  maxBytes,
		rollBytes: rollBytes,
		lock:      lock,
		objects:   make(map[[32]byte]*list.Element),
		order:     list.New(),
		nextSeg:   1,
		evictCh:   make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	if err := s.warmStart(); err != nil {
		for _, seg := range s.segs {
			seg.f.Close()
		}
		s.unlock()
		return nil, err
	}
	s.wg.Add(1)
	go s.loop()
	// A budget smaller than what survived the restart trims eagerly, and
	// segments left sparse by superseded records get reclaimed.
	s.signalEvict()
	return s, nil
}

const (
	segmentsDirName   = "segments"
	quarantineDirName = "quarantine"
	indexFileName     = "index"
	lockFileName      = "lock"
)

var errClosed = errors.New("store: closed")

// recordBufs recycles the buffers Put builds records in: a record is
// written and then forgotten, so its buffer can carry the next one.
var recordBufs sync.Pool // of *[]byte

// KeyHash returns the store's content address for a canonical key
// string: its SHA-256.
func KeyHash(key string) [32]byte { return sha256.Sum256([]byte(key)) }

// Get returns the verified payload stored under key, or (nil, false).
// Corruption of any kind — truncation, checksum mismatch, a record bound
// to a different key — quarantines the artifact and reports a miss, so
// callers recompute instead of consuming bad bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.GetByHash(KeyHash(key))
}

// GetByHash is Get addressed by the key's hash directly — the shape the
// cluster artifact-fetch endpoint needs, since peers exchange content
// addresses, not canonical keys. Verification is identical to Get's: a
// payload is returned only when every checksum holds.
func (s *Store) GetByHash(h [32]byte) ([]byte, bool) {
	s.mu.Lock()
	el, ok := s.objects[h]
	var o object
	if ok {
		s.touchLocked(el)
		o = *el.Value.(*object)
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}

	rec := make([]byte, o.size)
	n, err := o.seg.f.ReadAt(rec, o.off)
	if errors.Is(err, os.ErrClosed) {
		// Lost a race with compaction, which closes a segment once its
		// records have moved (or with Close): nothing to quarantine.
		s.misses.Add(1)
		return nil, false
	}
	payload, err := verifyRecord(rec[:n], h)
	if err != nil {
		s.quarantine(h, o.seg, o.off, rec[:n])
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put stores payload under key with one append to the active segment.
// A key already resident with this very payload is only touched:
// artifacts are deterministic functions of their key, so its bytes are
// already right. A resident record holding other bytes, such as an
// artifact its reader could not decode and recomputed, is superseded:
// the new record is appended and the key repointed to it, as a restart
// would (Open takes a hash's newest record). Put failures lose
// durability, never correctness — the error is returned for logging and
// counted in Stats, and the caller's in-memory result is unaffected.
func (s *Store) Put(key string, payload []byte) error {
	h := KeyHash(key)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	el, resident := s.objects[h]
	var old object
	if resident {
		s.touchLocked(el)
		old = *el.Value.(*object)
	}
	s.mu.Unlock()
	if resident && old.size == artifactHeaderSize+int64(len(payload)) && holds(&old, payload) {
		return nil
	}

	if int64(len(payload)) > maxArtifactBytes-artifactHeaderSize {
		s.putErrors.Add(1)
		return fmt.Errorf("store: put: %d-byte payload exceeds the artifact cap", len(payload))
	}
	bp, _ := recordBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	rec := appendRecord((*bp)[:0], h, payload)
	defer func() {
		if cap(rec) <= maxPooledRecord {
			*bp = rec
			recordBufs.Put(bp)
		}
	}()
	over := false
	err := s.writeRecord(rec, func(seg *segment, off int64) {
		if el, ok := s.objects[h]; ok {
			if resident {
				s.repointLocked(el, seg, off, int64(len(rec)))
			}
			// Otherwise a concurrent Put of the same key won; this copy
			// is dead.
		} else {
			s.insertLocked(&object{hash: h, size: int64(len(rec)), seg: seg, off: off})
		}
		over = s.maxBytes > 0 && s.bytes > s.maxBytes
	})
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	s.puts.Add(1)
	if over {
		s.signalEvict()
	}
	return nil
}

// holds reports whether resident record o carries payload, by the
// payload checksum in its header. A record it cannot read does not.
func holds(o *object, payload []byte) bool {
	var hdr [artifactHeaderSize]byte
	if n, err := readFull(o.seg.f, hdr[:], o.off); err != nil || n < artifactHeaderSize {
		return false
	}
	sum := sha256.Sum256(payload)
	return bytes.Equal(hdr[45:77], sum[:])
}

// GetTrace and PutTrace adapt the store to core.TraceBackend, so a
// *Store plugs directly behind a TraceCache. Traces are addressed under
// CacheKey.CanonicalFormat (trace/v2), so the artifacts a store written
// before XTRP2 holds under trace/v1 are never read and age out through
// eviction.
func (s *Store) GetTrace(key core.CacheKey, format trace.Format) ([]byte, bool) {
	return s.Get(key.CanonicalFormat(format))
}

// PutTrace implements core.TraceBackend; see Put for semantics.
func (s *Store) PutTrace(key core.CacheKey, format trace.Format, enc []byte) {
	s.Put(key.CanonicalFormat(format), enc)
}

// Size reports the encoded payload size of a resident artifact (its
// record size minus the fixed record header), or false if no such
// artifact is resident. It reads only the in-memory index — no disk I/O
// and no recency update — so serving layers can report per-artifact
// storage costs cheaply.
func (s *Store) Size(key string) (int64, bool) {
	h := KeyHash(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.objects[h]
	if !ok {
		return 0, false
	}
	return el.Value.(*object).size - artifactHeaderSize, true
}

// insertLocked makes o resident as the most recently used artifact; the
// caller holds s.mu and has checked that o.hash is not resident.
func (s *Store) insertLocked(o *object) {
	s.seq++
	o.seq = s.seq
	s.objects[o.hash] = s.order.PushFront(o)
	s.bytes += o.size
	o.seg.live += o.size
	s.dirty = true
}

// touchLocked refreshes an object's recency; the caller holds s.mu.
func (s *Store) touchLocked(el *list.Element) {
	s.seq++
	el.Value.(*object).seq = s.seq
	s.order.MoveToFront(el)
	s.dirty = true
}

// repointLocked moves resident artifact el to its new record of size
// bytes at (seg, off); the old record becomes dead bytes in its
// segment. The caller holds s.mu.
func (s *Store) repointLocked(el *list.Element, seg *segment, off, size int64) {
	o := el.Value.(*object)
	s.bytes += size - o.size
	o.seg.live -= o.size
	seg.live += size
	o.seg, o.off, o.size = seg, off, size
	s.touchLocked(el)
}

// removeLocked forgets a resident object; its record becomes dead
// bytes in its segment. The caller holds s.mu.
func (s *Store) removeLocked(el *list.Element) {
	o := el.Value.(*object)
	s.bytes -= o.size
	o.seg.live -= o.size
	s.order.Remove(el)
	delete(s.objects, o.hash)
	s.dirty = true
}

// quarantine handles a record that failed verification: if h still
// lives at (seg, off) it is dropped, counted as a corruption, and the
// bytes read are kept in quarantine/ for postmortems. A stale location
// (a concurrent reader got there first, or a re-put replaced it) is
// left alone.
func (s *Store) quarantine(h [32]byte, seg *segment, off int64, rec []byte) {
	s.mu.Lock()
	el, ok := s.objects[h]
	ok = ok && el.Value.(*object).seg == seg && el.Value.(*object).off == off
	if ok {
		s.removeLocked(el)
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	s.corruptions.Add(1)
	// Losing the postmortem copy costs diagnostics, not correctness.
	_ = os.WriteFile(s.quarantinePath(h), rec, 0o644)
	s.signalEvict()
}

func (s *Store) signalEvict() {
	select {
	case s.evictCh <- struct{}{}:
	default:
	}
}

// loop is the background goroutine: it trims past-budget artifacts,
// reclaims sparse segments, and periodically persists a dirty index.
func (s *Store) loop() {
	defer s.wg.Done()
	t := time.NewTicker(flushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-s.evictCh:
			s.evictToBudget()
			s.reclaim()
		case <-t.C:
			s.flushIfDirty()
		}
	}
}

// evictToBudget forgets least-recently-used artifacts until the byte
// budget is met. Their records stay on disk until reclaim deletes or
// compacts the segment holding them.
func (s *Store) evictToBudget() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.maxBytes > 0 && s.bytes > s.maxBytes && s.order.Len() > 0 {
		s.removeLocked(s.order.Back())
		s.evictions.Add(1)
	}
}

func (s *Store) flushIfDirty() {
	s.mu.Lock()
	if !s.dirty {
		s.mu.Unlock()
		return
	}
	idx := s.snapshotIndexLocked()
	s.dirty = false
	s.mu.Unlock()

	if err := writeIndex(filepath.Join(s.dir, indexFileName), idx); err != nil {
		// The index is advisory; a failed flush costs recency after a
		// crash, nothing else. Retry on the next tick.
		s.mu.Lock()
		s.dirty = true
		s.mu.Unlock()
	}
}

// snapshotIndexLocked captures the resident set oldest-first; the
// caller holds s.mu.
func (s *Store) snapshotIndexLocked() []object {
	out := make([]object, 0, s.order.Len())
	for el := s.order.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*object))
	}
	return out
}

// Stats returns a snapshot of traffic counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	objects := int64(s.order.Len())
	resident := s.bytes
	segs := int64(len(s.segs))
	dead := s.segBytes - s.bytes
	s.mu.Unlock()
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Evictions:      s.evictions.Load(),
		Corruptions:    s.corruptions.Load(),
		Puts:           s.puts.Load(),
		PutErrors:      s.putErrors.Load(),
		Objects:        objects,
		Bytes:          resident,
		Segments:       segs,
		DeadBytes:      dead,
		CompactedBytes: s.compacted.Load(),
	}
}

// Close stops the background goroutine, persists the index and closes
// the segment files. The store must not be used after Close.
func (s *Store) Close() error {
	s.wmu.Lock()
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	s.wmu.Unlock()
	if already {
		return nil
	}
	close(s.done)
	s.wg.Wait()
	s.evictToBudget()
	s.mu.Lock()
	idx := s.snapshotIndexLocked()
	s.dirty = false
	segs := s.segs
	s.mu.Unlock()
	err := writeIndex(filepath.Join(s.dir, indexFileName), idx)
	for _, seg := range segs {
		// Segments are only appended with WriteAt, which reports every
		// failure; closing a file adds no error worth surfacing.
		seg.f.Close()
	}
	s.unlock()
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

// unlock releases the directory lock.
func (s *Store) unlock() {
	if s.lock != nil {
		s.lock.Close()
	}
}

func (s *Store) quarantinePath(h [32]byte) string {
	return filepath.Join(s.dir, quarantineDirName, fmt.Sprintf("%x.art", h))
}
