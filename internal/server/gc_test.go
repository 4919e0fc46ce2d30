package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server/api"
)

// pollStatus fetches one job and returns the HTTP status (404 once the
// GC collected it).
func pollStatus(t *testing.T, url, id string) int {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestGCStartupSweep is the orphan-leak regression test: a job store
// left behind by a crashed prior incarnation — a stray temp file from
// an interrupted save, a damaged record recovery cannot adopt, and a
// long-finished terminal record — is cleaned at startup, while a
// queued record (a live job) survives, re-runs and stays durable.
func TestGCStartupSweep(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	jobsDir := filepath.Join(t.TempDir(), "jobs")
	d, err := newDiskJobs(jobsDir, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A crashed daemon's leftovers.
	if err := os.WriteFile(filepath.Join(jobsDir, "job-123abc"), []byte("half a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobsDir, "damaged.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(api.OptimizeRequest{Design: designJSON, Flow: "yosys", Async: true})
	d.save(jobRecord{
		ID: "livejob1", State: api.JobQueued, Epoch: 1,
		SubmittedAt: time.Now(), Request: req,
	})
	d.save(jobRecord{
		ID: "oldjob1", State: api.JobDone, Epoch: 1,
		SubmittedAt: time.Now().Add(-3 * time.Hour),
		FinishedAt:  time.Now().Add(-2 * time.Hour),
	})

	_, ts := newTestServer(t, Config{
		JobsDir: jobsDir,
		JobsTTL: time.Hour, // oldjob1 expired, anything fresh is not
	})

	for _, gone := range []string{"job-123abc", "damaged.json", "oldjob1.json"} {
		if _, err := os.Stat(filepath.Join(jobsDir, gone)); !os.IsNotExist(err) {
			t.Errorf("%s survived the startup sweep (err %v)", gone, err)
		}
	}
	if code := pollStatus(t, ts.URL, "oldjob1"); code != http.StatusNotFound {
		t.Errorf("collected job polls as %d, want 404", code)
	}
	// The live job survived the sweep, re-ran under its original id and
	// kept its durable record.
	if j := pollJob(t, ts.URL, "livejob1"); j.State != api.JobDone {
		t.Fatalf("recovered job finished as %s (%s)", j.State, j.Error)
	}
	if _, err := os.Stat(filepath.Join(jobsDir, "livejob1.json")); err != nil {
		t.Errorf("live job's record did not survive: %v", err)
	}
}

// TestGCPolicies drives one sweep per retention policy deterministically
// (no ticker): the age policy collects expired terminal jobs oldest
// first, the size policy trims to the byte budget, and fresh jobs
// survive both.
func TestGCPolicies(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	s, ts := newTestServer(t, Config{
		JobsDir: filepath.Join(t.TempDir(), "jobs"),
	})

	var ids []string
	for i := 0; i < 3; i++ {
		job := postAsync(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
		if j := pollJob(t, ts.URL, job.ID); j.State != api.JobDone {
			t.Fatalf("job %d: %s (%s)", i, j.State, j.Error)
		}
		ids = append(ids, job.ID)
	}
	// Backdate the first two beyond a 1h TTL.
	for i, id := range ids[:2] {
		j := s.jobs.get(id)
		s.jobs.mu.Lock()
		j.finished = time.Now().Add(-2*time.Hour + time.Duration(i)*time.Minute)
		s.jobs.mu.Unlock()
	}

	s.cfg.JobsTTL = time.Hour
	s.sweepJobs(false)
	for _, id := range ids[:2] {
		if code := pollStatus(t, ts.URL, id); code != http.StatusNotFound {
			t.Errorf("expired job %s polls as %d, want 404", id, code)
		}
	}
	if code := pollStatus(t, ts.URL, ids[2]); code != http.StatusOK {
		t.Errorf("fresh job %s polls as %d, want 200", ids[2], code)
	}

	// Size policy: a budget of one byte forces the remaining terminal
	// record out.
	records, bytes := s.jobs.disk.usage()
	if records != 1 || bytes <= 0 {
		t.Fatalf("after TTL sweep: %d records, %d bytes, want 1 record", records, bytes)
	}
	s.cfg.JobsTTL = 0
	s.cfg.JobsMaxBytes = 1
	s.sweepJobs(false)
	if records, bytes = s.jobs.disk.usage(); records != 0 || bytes != 0 {
		t.Errorf("after budget sweep: %d records, %d bytes, want empty store", records, bytes)
	}
	if code := pollStatus(t, ts.URL, ids[2]); code != http.StatusNotFound {
		t.Errorf("over-budget job polls as %d, want 404", code)
	}

	// The sweeps are visible on /metrics.
	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`smartlyd_jobs_gc_total{reason="ttl"} 2`,
		`smartlyd_jobs_gc_total{reason="bytes"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestGCNeverCollectsLiveJobs pins the mechanism-level guarantee: a
// queued or running job cannot be forgotten, whatever policy asks.
func TestGCNeverCollectsLiveJobs(t *testing.T) {
	var js jobStore
	js.init(nil, nil)
	j := js.add(nil)
	if got := js.forget(j.id); got != nil {
		t.Fatal("forget removed a queued job")
	}
	js.setState(j, api.JobRunning, "", nil, nil)
	if got := js.forget(j.id); got != nil {
		t.Fatal("forget removed a running job")
	}
	js.setState(j, api.JobDone, "", nil, nil)
	if got := js.forget(j.id); got == nil {
		t.Fatal("forget refused a terminal job")
	}
	if js.get(j.id) != nil {
		t.Fatal("forgotten job still resolves")
	}
}

// TestGCBackgroundTicker: with a retention policy and a short interval
// the daemon collects expired records on its own, no restart needed.
func TestGCBackgroundTicker(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	jobsDir := filepath.Join(t.TempDir(), "jobs")
	s, ts := newTestServer(t, Config{
		JobsDir:        jobsDir,
		JobsTTL:        5 * time.Millisecond,
		JobsGCInterval: 10 * time.Millisecond,
	})

	job := postAsync(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	// Not pollJob: with a 5ms TTL the GC may collect the finished job
	// between two polls.
	if j := waitJob(t, s, job.ID); j.State != api.JobDone {
		t.Fatalf("job: %s (%s)", j.State, j.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := pollStatus(t, ts.URL, job.ID); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background GC never collected the expired job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(jobsDir, job.ID+".json")); !os.IsNotExist(err) {
		t.Errorf("expired record still on disk (err %v)", err)
	}
	// Close stops the ticker goroutine.
	s.Close()
	select {
	case <-s.gcDone:
	case <-time.After(5 * time.Second):
		t.Fatal("GC goroutine did not exit on Close")
	}
}
