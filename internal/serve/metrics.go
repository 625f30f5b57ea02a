package serve

import (
	"expvar"
	"fmt"
	"net/http"

	"extrap/internal/compose"
	"extrap/internal/model"
	"extrap/internal/sim"
	"extrap/internal/trace"
)

// metricsSet is the server's observability slice, held as expvar vars.
// The vars are deliberately NOT published into the process-global expvar
// registry — expvar.Publish panics on duplicate names, which would
// forbid running more than one Server per process (tests do, and
// embedders may). Instead the server's own GET /debug/vars handler
// renders this set alongside the globals expvar publishes by default
// (cmdline, memstats).
type metricsSet struct {
	requests    *expvar.Map // request count by route
	statuses    *expvar.Map // response count by status class ("2xx", ...)
	rejected    *expvar.Int // requests shed by the in-flight limiter
	inflight    *expvar.Int // compute requests currently holding a slot
	latencyUs   *expvar.Int // cumulative handler wall time, µs
	cacheHits   *expvar.Int // trace-cache lookups served from memory
	cacheMisses *expvar.Int // measurement runs performed

	jobsSubmitted *expvar.Int // jobs accepted via POST /v1/jobs
	storeVars     *expvar.Map // artifact store hit/miss/evict/corrupt (set when a store is open)
	jobsVars      *expvar.Map // jobs queued/running/done/failed (set when jobs are enabled)
	batchVars     *expvar.Map // batched-sweep counters (batches, cells_batched, fallback_sequential)
	compVars      *expvar.Map // trace-compaction counters (raw/encoded bytes, replay vs literal)
	clusterVars   *expvar.Map // shard routing/execution counters (set when Role isn't solo)
	fittedVars    *expvar.Map // fitted-sweep counters (runs, iterations, anchors, fitted cells)
	composeVars   *expvar.Map // workload-DSL counters (specs parsed, programs synthesized, cache hits)
	simVars       *expvar.Map // replay fast-forward counters (attempts, fast_forwards, iterations_skipped, fallbacks)
}

func newMetricsSet() *metricsSet {
	return &metricsSet{
		requests:      new(expvar.Map).Init(),
		statuses:      new(expvar.Map).Init(),
		rejected:      new(expvar.Int),
		inflight:      new(expvar.Int),
		latencyUs:     new(expvar.Int),
		cacheHits:     new(expvar.Int),
		cacheMisses:   new(expvar.Int),
		jobsSubmitted: new(expvar.Int),
		storeVars:     new(expvar.Map).Init(),
		jobsVars:      new(expvar.Map).Init(),
		batchVars:     new(expvar.Map).Init(),
		compVars:      new(expvar.Map).Init(),
		clusterVars:   new(expvar.Map).Init(),
		fittedVars:    new(expvar.Map).Init(),
		composeVars:   new(expvar.Map).Init(),
		simVars:       new(expvar.Map).Init(),
	}
}

// setInt upserts an *expvar.Int value in a map (expvar.Map has no typed
// getter, so keep the upsert in one place).
func setInt(m *expvar.Map, key string, v int64) {
	i := new(expvar.Int)
	i.Set(v)
	m.Set(key, i)
}

// vars assembles the set as one expvar.Map for rendering.
func (m *metricsSet) vars() *expvar.Map {
	v := new(expvar.Map).Init()
	v.Set("requests", m.requests)
	v.Set("responses_by_status", m.statuses)
	v.Set("rejected", m.rejected)
	v.Set("inflight", m.inflight)
	v.Set("latency_us_total", m.latencyUs)
	v.Set("cache_hits", m.cacheHits)
	v.Set("cache_misses", m.cacheMisses)
	return v
}

// handleVars serves GET /debug/vars in the standard expvar JSON shape:
// the server's own counters under "extrap_serve", then every var
// published in the process-global registry.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.svc.CacheStats()
	s.met.cacheHits.Set(hits)
	s.met.cacheMisses.Set(misses)

	root := s.met.vars()
	cs := s.svc.CompressionStats()
	tc := trace.ReadCompressionCounters()
	cv := s.met.compVars
	setInt(cv, "raw_bytes", cs.RawBytes)
	setInt(cv, "encoded_bytes", cs.EncodedBytes)
	setInt(cv, "encoded_traces", int64(tc.EncodedTraces))
	setInt(cv, "pattern_table_entries", int64(tc.PatternEntries))
	setInt(cv, "replayed_events", int64(tc.ReplayEvents))
	setInt(cv, "literal_events", int64(tc.LiteralEvents))
	root.Set("compression", cv)
	bs := s.svc.BatchStats()
	bv := s.met.batchVars
	setInt(bv, "batches", bs.Batches)
	setInt(bv, "cells_batched", bs.CellsBatched)
	setInt(bv, "fallback_sequential", bs.FallbackSequential)
	root.Set("batch", bv)
	fc := model.ReadCounters()
	fv := s.met.fittedVars
	setInt(fv, "runs", fc.Runs)
	setInt(fv, "fit_iterations", fc.FitIterations)
	setInt(fv, "anchors_simulated", fc.AnchorsSimulated)
	setInt(fv, "cells_fitted", fc.CellsFitted)
	root.Set("fitted", fv)
	cc := compose.ReadCounters()
	cmv := s.met.composeVars
	setInt(cmv, "specs_parsed", cc.SpecsParsed)
	setInt(cmv, "programs_synthesized", cc.Synthesized)
	setInt(cmv, "cache_hits", cc.CacheHits)
	setInt(cmv, "cache_misses", cc.CacheMisses)
	setInt(cmv, "nodes_lowered", cc.NodesLowered)
	setInt(cmv, "preset_hits", cc.PresetHits)
	root.Set("compose", cmv)
	rc := sim.ReadReplayCounters()
	rv := s.met.simVars
	setInt(rv, "ff_attempts", int64(rc.Attempts))
	setInt(rv, "fast_forwards", int64(rc.FastForwards))
	setInt(rv, "iterations_skipped", int64(rc.IterationsSkipped))
	setInt(rv, "fallbacks", int64(rc.Fallbacks))
	root.Set("sim", rv)
	if s.store != nil {
		st := s.store.Stats()
		sv := s.met.storeVars
		setInt(sv, "hits", st.Hits)
		setInt(sv, "misses", st.Misses)
		setInt(sv, "evictions", st.Evictions)
		setInt(sv, "corruptions", st.Corruptions)
		setInt(sv, "puts", st.Puts)
		setInt(sv, "put_errors", st.PutErrors)
		setInt(sv, "objects", st.Objects)
		setInt(sv, "bytes", st.Bytes)
		setInt(sv, "segments", st.Segments)
		setInt(sv, "dead_bytes", st.DeadBytes)
		setInt(sv, "compacted_bytes", st.CompactedBytes)
		root.Set("store", sv)
	}
	if s.coord != nil {
		ct := s.coord.Stats()
		cl := s.met.clusterVars
		setInt(cl, "role_coordinator", 1)
		setInt(cl, "shards_dispatched", ct.Dispatched)
		setInt(cl, "shards_completed", ct.Completed)
		setInt(cl, "shards_retried", ct.Retried)
		setInt(cl, "shards_local", ct.Local)
		peers := new(expvar.Map).Init()
		for _, p := range ct.Peers {
			pv := new(expvar.Map).Init()
			healthy := int64(0)
			if p.Healthy {
				healthy = 1
			}
			setInt(pv, "healthy", healthy)
			setInt(pv, "dispatched", p.Dispatched)
			setInt(pv, "completed", p.Completed)
			setInt(pv, "failed", p.Failed)
			peers.Set(p.URL, pv)
		}
		cl.Set("peers", peers)
		root.Set("cluster", cl)
	}
	if s.worker != nil {
		wt := s.worker.Stats()
		cl := s.met.clusterVars
		setInt(cl, "role_worker", 1)
		setInt(cl, "shards_accepted", wt.Accepted)
		setInt(cl, "shards_completed", wt.Completed)
		setInt(cl, "shards_failed", wt.Failed)
		setInt(cl, "shards_expired", wt.Expired)
		setInt(cl, "shards_rejected", wt.Rejected)
		setInt(cl, "shards_active", wt.Active)
		root.Set("cluster", cl)
	}
	if s.jobs != nil {
		jt := s.jobs.Stats()
		jv := s.met.jobsVars
		setInt(jv, "queued", jt.Queued)
		setInt(jv, "running", jt.Running)
		setInt(jv, "done", jt.Done)
		setInt(jv, "failed", jt.Failed)
		setInt(jv, "cancelled", jt.Cancelled)
		setInt(jv, "cells_loaded", jt.CellsLoaded)
		setInt(jv, "cells_computed", jt.CellsComputed)
		jv.Set("submitted", s.met.jobsSubmitted)
		root.Set("jobs", jv)
	}

	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n%q: %s", "extrap_serve", root.String())
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value.String())
	})
	fmt.Fprintf(w, "\n}\n")
}

// statusRecorder captures the response status for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// statusClass buckets an HTTP status for the responses_by_status map.
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}
