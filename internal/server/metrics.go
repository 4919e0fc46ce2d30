package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/server/api"
)

// The metrics facility instruments the serving path end to end:
// request counts by endpoint and status, sync/async optimize latency
// and queue-wait histograms, job lifecycle transitions, cache tier
// outcomes, job-store GC work and live SSE subscriber counts — all
// exposed on GET /metrics in the Prometheus text format and summarized
// (latency percentiles, store usage) in /healthz. Counters that mirror
// an externally maintained source (the cache's stats, the job store's
// on-disk usage) are synced at scrape time, so the hot path pays only
// its own atomic increments.

// serverMetrics is one server's instrument set.
type serverMetrics struct {
	reg *metrics.Registry

	// requests counts every served HTTP request (the labeled per
	// endpoint/status counters live in reg; this one total feeds the
	// healthz summary without walking the registry).
	requests metrics.Counter

	// optSync observes the full latency of successful synchronous
	// optimize requests, from handler entry (before the body is read)
	// to the encoded response, the span a client sees minus transport.
	// optAsync observes an async job's run span: from its background
	// goroutine starting (queued, holding an admission slot) to its
	// terminal state.
	optSync  *metrics.Histogram
	optAsync *metrics.Histogram
	// stages observe where an optimize request's time goes, one
	// histogram per stage (see the stage constants).
	stages [numStages]*metrics.Histogram
	// queueWait observes the time an admitted request (sync or async)
	// waited for a run slot.
	queueWait *metrics.Histogram

	// sse gauges currently connected events subscribers.
	sse *metrics.Gauge
}

// Metric names. The smartlyd_ prefix namespaces the daemon in a shared
// Prometheus; docs/api.md documents each.
const (
	mRequests       = "smartlyd_requests_total"
	mOptimize       = "smartlyd_optimize_seconds"
	mQueueWait      = "smartlyd_queue_wait_seconds"
	mStage          = "smartlyd_stage_seconds"
	mJobTransitions = "smartlyd_job_transitions_total"
	mJobs           = "smartlyd_jobs"
	mJobRecords     = "smartlyd_job_records"
	mJobStoreBytes  = "smartlyd_job_store_bytes"
	mJobsGC         = "smartlyd_jobs_gc_total"
	mSSE            = "smartlyd_sse_subscribers"
	mCacheHits      = "smartlyd_cache_hits_total"
	mCacheMisses    = "smartlyd_cache_misses_total"
	mCacheErrors    = "smartlyd_cache_errors_total"
	mCacheCoalesced = "smartlyd_cache_coalesced_total"
	mCacheEvictions = "smartlyd_cache_evictions_total"
	mCachePuts      = "smartlyd_cache_puts_total"
	mCacheEntries   = "smartlyd_cache_entries"
	mCacheBytes     = "smartlyd_cache_bytes"
	mUptime         = "smartlyd_uptime_seconds"
)

// The stages of an optimize request, in order. decode reads the body
// and parses the request and its netlist (validation included); hash
// computes the canonical content hashes; cache looks the result up (and
// decodes a cached payload); compute runs the flow on a miss and
// serializes the payload; encode writes the response netlist and body.
// Design-mode requests observe hash, cache and compute once per module
// shard.
const (
	stageDecode = iota
	stageHash
	stageCache
	stageCompute
	stageEncode
	numStages
)

var stageNames = [numStages]string{"decode", "hash", "cache", "compute", "encode"}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		optSync: reg.Histogram(mOptimize,
			"optimize latency: admission to response ready (successful requests)",
			metrics.Labels{"kind": "sync"}),
		optAsync: reg.Histogram(mOptimize, "",
			metrics.Labels{"kind": "async"}),
		queueWait: reg.Histogram(mQueueWait,
			"time admitted requests waited for a run slot", nil),
		sse: reg.Gauge(mSSE, "currently connected events subscribers", nil),
	}
	for i, name := range stageNames {
		m.stages[i] = reg.Histogram(mStage, "time optimize requests spent per stage",
			metrics.Labels{"stage": name})
	}
	return m
}

// stage observes the time since start in one request stage and returns
// the current time, so consecutive stages chain.
func (m *serverMetrics) stage(st int, start time.Time) time.Time {
	now := time.Now()
	m.stages[st].Observe(now.Sub(start))
	return now
}

// request records one served HTTP request.
func (m *serverMetrics) request(endpoint string, status int) {
	m.requests.Inc()
	m.reg.Counter(mRequests, "HTTP requests served, by endpoint and status",
		metrics.Labels{"endpoint": endpoint, "status": strconv.Itoa(status)}).Inc()
}

// jobTransition records one job lifecycle transition (queued, running,
// done, failed — including re-queues on recovery).
func (m *serverMetrics) jobTransition(state string) {
	m.reg.Counter(mJobTransitions, "job lifecycle transitions, by entered state",
		metrics.Labels{"state": state}).Inc()
}

// gcCollected records job-store GC work by reason (ttl, bytes, orphan,
// stray).
func (m *serverMetrics) gcCollected(reason string, n int) {
	if n <= 0 {
		return
	}
	m.reg.Counter(mJobsGC, "job-store records collected by GC, by reason",
		metrics.Labels{"reason": reason}).Add(uint64(n))
}

// syncCache mirrors one cache stats snapshot into the registry. The
// stats struct is already a consistent snapshot (taken under the
// cache's own mutex), so the mirrored counters agree with each other.
func (m *serverMetrics) syncCache(st cache.Stats) {
	hit := func(tier string, v uint64) {
		m.reg.Counter(mCacheHits, "result cache hits, by tier",
			metrics.Labels{"tier": tier}).Set(v)
	}
	hit("memory", st.Hits)
	hit("disk", st.DiskHits)
	hit("remote", st.RemoteHits)
	m.reg.Counter(mCacheMisses, "result cache lookups that missed every tier", nil).Set(st.Misses)
	m.reg.Counter(mCacheErrors, "result cache tier failures, by tier",
		metrics.Labels{"tier": "disk"}).Set(st.DiskBad)
	m.reg.Counter(mCacheErrors, "", metrics.Labels{"tier": "remote"}).Set(st.RemoteErrors)
	m.reg.Counter(mCacheCoalesced, "lookups coalesced onto an identical in-flight computation", nil).Set(st.Coalesced)
	m.reg.Counter(mCacheEvictions, "memory-tier LRU evictions", nil).Set(st.Evictions)
	m.reg.Counter(mCachePuts, "values stored in the cache", nil).Set(st.Puts)
	m.reg.Gauge(mCacheEntries, "memory-tier entries", nil).Set(int64(st.Entries))
	m.reg.Gauge(mCacheBytes, "memory-tier bytes", metrics.Labels{"bound": "current"}).Set(st.Bytes)
	m.reg.Gauge(mCacheBytes, "", metrics.Labels{"bound": "max"}).Set(st.MaxBytes)
}

// syncServer mirrors the server-owned scrape-time values: job counts by
// state, durable-store usage and uptime.
func (s *Server) syncServerMetrics() {
	m := s.metrics
	js := s.jobs.stats()
	jobGauge := func(state string, v int) {
		m.reg.Gauge(mJobs, "jobs in the in-memory store, by state",
			metrics.Labels{"state": state}).Set(int64(v))
	}
	jobGauge(api.JobQueued, js.Queued)
	jobGauge(api.JobRunning, js.Running)
	jobGauge(api.JobDone, js.Done)
	jobGauge(api.JobFailed, js.Failed)
	if s.jobs.disk != nil {
		records, bytes := s.jobs.disk.usage()
		m.reg.Gauge(mJobRecords, "records in the durable job store", nil).Set(int64(records))
		m.reg.Gauge(mJobStoreBytes, "bytes in the durable job store", nil).Set(bytes)
	}
	m.reg.Gauge(mUptime, "seconds since the daemon started", nil).
		Set(int64(time.Since(s.start).Seconds()))
	m.syncCache(s.cache.Stats())
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncServerMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.logf("writing /metrics: %v", err)
	}
}

// metricsSummary digests the instrument set for /healthz.
func (s *Server) metricsSummary() *api.MetricsSummary {
	m := s.metrics
	return &api.MetricsSummary{
		Requests:       m.requests.Value(),
		OptimizeSync:   latencySummary(m.optSync),
		OptimizeAsync:  latencySummary(m.optAsync),
		QueueWait:      latencySummary(m.queueWait),
		SSESubscribers: m.sse.Value(),
	}
}

func latencySummary(h *metrics.Histogram) api.LatencySummary {
	sn := h.Snapshot()
	return api.LatencySummary{
		Count: sn.Count,
		P50MS: toMillis(sn.P50),
		P95MS: toMillis(sn.P95),
		P99MS: toMillis(sn.P99),
		MaxMS: toMillis(sn.Max),
	}
}

func toMillis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// flushWriter adds Flush passthrough for handlers that stream (SSE).
// It is a distinct type so a wrapped connection only advertises
// http.Flusher when the underlying one does — handleJobEvents feature-
// detects with a type assertion.
type flushWriter struct {
	*statusWriter
	f http.Flusher
}

func (w flushWriter) Flush() { w.f.Flush() }

// instrument wraps a handler to count (endpoint, status) on completion.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		var ww http.ResponseWriter = sw
		if f, ok := w.(http.Flusher); ok {
			ww = flushWriter{sw, f}
		}
		h(ww, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.metrics.request(endpoint, sw.status)
	}
}
