package server

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/server/api"
)

// scrapeMetrics fetches GET /metrics and returns the body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// getHealth fetches and decodes GET /healthz.
func getHealth(t *testing.T, url string) api.Health {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMetricsEndpoint drives the serving path once through each class
// of instrument and pins the Prometheus exposition on /metrics.
func TestMetricsEndpoint(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, ts := newTestServer(t, Config{
		JobsDir: filepath.Join(t.TempDir(), "jobs"),
	})

	// One miss, one hit, one async job, one bad request.
	if _, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"}); code != http.StatusOK {
		t.Fatalf("miss request: %d", code)
	}
	if _, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"}); code != http.StatusOK {
		t.Fatalf("hit request: %d", code)
	}
	job := postAsync(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	if j := pollJob(t, ts.URL, job.ID); j.State != api.JobDone {
		t.Fatalf("async job: %s (%s)", j.State, j.Error)
	}
	if _, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: []byte("null")}); code != http.StatusBadRequest {
		t.Fatalf("bad request: %d", code)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE smartlyd_requests_total counter",
		`smartlyd_requests_total{endpoint="optimize",status="200"} 2`,
		`smartlyd_requests_total{endpoint="optimize",status="202"} 1`,
		`smartlyd_requests_total{endpoint="optimize",status="400"} 1`,
		"# TYPE smartlyd_optimize_seconds histogram",
		`smartlyd_optimize_seconds_count{kind="sync"} 2`,
		`smartlyd_optimize_seconds_count{kind="async"} 1`,
		`smartlyd_optimize_seconds_bucket{kind="sync",le="+Inf"} 2`,
		"# TYPE smartlyd_queue_wait_seconds histogram",
		"smartlyd_queue_wait_seconds_count 3",
		`smartlyd_job_transitions_total{state="queued"} 1`,
		`smartlyd_job_transitions_total{state="running"} 1`,
		`smartlyd_job_transitions_total{state="done"} 1`,
		`smartlyd_jobs{state="done"} 1`,
		"smartlyd_job_records 1",
		`smartlyd_cache_hits_total{tier="memory"}`,
		"smartlyd_cache_misses_total",
		"smartlyd_cache_puts_total",
		"smartlyd_sse_subscribers 0",
		"smartlyd_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", out)
	}
}

// TestHealthzConsistentUnderLoad hammers /healthz while optimize
// traffic (sync and async) runs, asserting every response is a
// complete, internally consistent snapshot. Run under -race this also
// proves the snapshot path is race-free against the serving path.
func TestHealthzConsistentUnderLoad(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, ts := newTestServer(t, Config{
		Jobs: 2, QueueDepth: 64,
		JobsDir: filepath.Join(t.TempDir(), "jobs"),
	})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 6; n++ {
				if i%2 == 0 {
					postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
				} else {
					job := postAsync(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
					pollJob(t, ts.URL, job.ID)
				}
			}
		}(i)
	}
	var lastRequests uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 40; n++ {
			h := getHealth(t, ts.URL)
			if h.Status != "ok" {
				t.Errorf("healthz status %q", h.Status)
			}
			if h.Metrics == nil {
				t.Error("healthz has no metrics summary")
				return
			}
			if h.Metrics.Requests < lastRequests {
				t.Errorf("request counter went backwards: %d after %d", h.Metrics.Requests, lastRequests)
			}
			lastRequests = h.Metrics.Requests
			if h.Store == nil {
				t.Error("healthz has no store stats despite JobsDir")
				return
			}
			if h.Store.Records > 0 && h.Store.Bytes <= 0 {
				t.Errorf("store stats inconsistent: %d records, %d bytes", h.Store.Records, h.Store.Bytes)
			}
			scrapeMetrics(t, ts.URL) // the scrape path races the same instruments
		}
	}()
	wg.Wait()

	// After the load settles, the summary must agree with the traffic
	// that ran: some sync and async observations, queue waits for every
	// admitted run, uptime present.
	h := getHealth(t, ts.URL)
	if h.Metrics.OptimizeSync.Count == 0 || h.Metrics.OptimizeAsync.Count == 0 {
		t.Fatalf("latency summaries empty after load: %+v", h.Metrics)
	}
	if h.Metrics.QueueWait.Count < h.Metrics.OptimizeSync.Count+h.Metrics.OptimizeAsync.Count {
		t.Errorf("queue waits (%d) < completed requests (%d+%d)",
			h.Metrics.QueueWait.Count, h.Metrics.OptimizeSync.Count, h.Metrics.OptimizeAsync.Count)
	}
	if h.Metrics.OptimizeSync.P50MS <= 0 || h.Metrics.OptimizeSync.MaxMS < h.Metrics.OptimizeSync.P50MS {
		t.Errorf("sync summary implausible: %+v", h.Metrics.OptimizeSync)
	}
}

// TestMetricsVisibleWithResult is the regression test for samples
// recorded after their result was published: a client that polls an
// async job to "done" (without pause) or reads a sync response and
// scrapes /metrics at once must find the request's latency sample, its
// terminal transition and its stage samples.
func TestMetricsVisibleWithResult(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, ts := newTestServer(t, Config{
		// The durable store makes publishing a terminal state slow
		// (a record write), widening any window after it.
		JobsDir: filepath.Join(t.TempDir(), "jobs"),
	})

	job := postAsync(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys", NoCache: true})
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var j api.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if j.State == api.JobDone {
			break
		}
		if j.State == api.JobFailed {
			t.Fatalf("async job failed: %s", j.Error)
		}
	}
	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`smartlyd_optimize_seconds_count{kind="async"} 1`,
		`smartlyd_job_transitions_total{state="done"} 1`,
		`smartlyd_stage_seconds_count{stage="compute"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("after the job finished: /metrics missing %q", want)
		}
	}

	if _, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"}); code != http.StatusOK {
		t.Fatalf("sync request: %d", code)
	}
	out = scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`smartlyd_optimize_seconds_count{kind="sync"} 1`,
		`smartlyd_stage_seconds_count{stage="decode"} 2`,
		`smartlyd_stage_seconds_count{stage="hash"} 2`,
		`smartlyd_stage_seconds_count{stage="cache"} 2`,
		`smartlyd_stage_seconds_count{stage="compute"} 2`,
		`smartlyd_stage_seconds_count{stage="encode"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("after the sync response: /metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", out)
	}
}
