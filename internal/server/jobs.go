package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/server/api"
)

// maxRetainedJobs bounds the job store: once exceeded, the oldest
// finished jobs are forgotten (polling them then returns 404) and their
// durable records removed.
const maxRetainedJobs = 1024

// maxRetainedResults bounds how many finished jobs keep their full
// result payload in memory. Payloads carry whole optimized netlists, so
// — unlike the byte-bounded result cache — retaining one per job would
// let a long-lived daemon pin gigabytes. Older finished jobs keep their
// metadata (state, error) and drop the in-memory payload; polling one
// re-hydrates it from the durable store, and without a store the job is
// reported as result_evicted — never "done" with a nil result.
const maxRetainedResults = 32

// maxRetainedEvents bounds a job's buffered progress events. Events are
// small, but a long fixpoint-heavy flow over a large design emits one
// per pass invocation per module; past the bound the oldest events are
// dropped (a late events subscriber resumes from what remains — the
// live tail — which is what progress streaming is for).
const maxRetainedEvents = 4096

// job is one async submission. Mutable state is guarded by the store
// mutex; done closes when the job reaches a terminal state.
type job struct {
	id        string
	submitted time.Time
	state     string
	errMsg    string
	result    *api.OptimizeResponse
	done      chan struct{}

	// finished is when the job reached its terminal state (zero while
	// pending); the job-store GC ages terminal jobs by it.
	finished time.Time

	// epoch counts the job's incarnations: 1 at submission, +1 every
	// time a restarted daemon adopts it from the durable store. Events
	// are identified by (epoch, seq) — seq restarts at 1 per
	// incarnation — so a subscriber resuming with a pre-restart
	// position is replayed from the start instead of waiting for a Seq
	// the re-run may never reach. Immutable once the job is registered.
	epoch int

	// events buffers the job's progress stream (lifecycle transitions
	// and per-pass completions); seq numbers the next event; eventc is
	// closed and replaced on every append, waking events subscribers.
	events []api.JobEvent
	seq    int
	eventc chan struct{}

	// saveMu serializes this job's durable-record writes and removals,
	// which run outside the store mutex (see setState).
	saveMu sync.Mutex
}

// jobStore tracks async jobs in submission order for pruning, with an
// optional durable backend that survives restarts.
type jobStore struct {
	mu    sync.Mutex
	byID  map[string]*job
	order []*job
	disk  *diskJobs // nil = in-memory only

	// onTransition observes every lifecycle transition (the entered
	// state) for the metrics facility; never nil after init. Called
	// outside mu — it only touches atomic counters, but the store's
	// locks owe it nothing.
	onTransition func(state string)
}

func (js *jobStore) init(disk *diskJobs, onTransition func(state string)) {
	js.byID = map[string]*job{}
	js.disk = disk
	js.onTransition = onTransition
	if js.onTransition == nil {
		js.onTransition = func(string) {}
	}
}

// newJob allocates a job in the given state without registering it.
func newJob(id string, submitted time.Time, state string) *job {
	return &job{
		id:        id,
		submitted: submitted,
		state:     state,
		done:      make(chan struct{}),
		eventc:    make(chan struct{}),
	}
}

// add registers a new queued job, persists its record (with the
// request body, so a restart can re-run it) and prunes old finished
// jobs.
func (js *jobStore) add(request json.RawMessage) *job {
	buf := make([]byte, 16)
	rand.Read(buf) // never fails per crypto/rand contract
	j := newJob(hex.EncodeToString(buf), time.Now(), api.JobQueued)
	j.epoch = 1
	js.mu.Lock()
	pruned := js.register(j)
	js.appendEventLocked(j, api.JobEvent{Type: api.EventState, State: j.state})
	js.mu.Unlock()
	js.onTransition(j.state)
	js.saveRecord(j, jobRecord{
		ID: j.id, State: j.state, Epoch: j.epoch, SubmittedAt: j.submitted, Request: request,
	})
	js.removeRecords(pruned)
	return j
}

// adopt registers a job recovered from the durable store under its
// original id (so pollers from before the restart still resolve it).
// Terminal jobs arrive with done already closed; pending ones are
// re-persisted as queued, so a crash during recovery recovers the same
// way again. Returns nil for a duplicate id (damaged store).
func (js *jobStore) adopt(rec jobRecord) *job {
	js.mu.Lock()
	if js.byID[rec.ID] != nil {
		js.mu.Unlock()
		return nil
	}
	state := rec.State
	terminal := state == api.JobDone || state == api.JobFailed
	if !terminal {
		// A job caught mid-run restarts from the queue: the optimization
		// is deterministic and cache-backed, so re-running is safe.
		state = api.JobQueued
	}
	j := newJob(rec.ID, rec.SubmittedAt, state)
	j.errMsg = rec.Error
	// Every adoption is a new incarnation: seq restarts at 1 below, so
	// the epoch must advance — and persist — or a second restart would
	// reuse this incarnation's event ids.
	j.epoch = rec.Epoch + 1
	if terminal {
		j.finished = rec.FinishedAt
		if j.finished.IsZero() {
			// Pre-FinishedAt record: age from the restart, not from 1970
			// (which would make the GC collect it instantly).
			j.finished = time.Now()
		}
	}
	pruned := js.register(j)
	js.appendEventLocked(j, api.JobEvent{Type: api.EventState, State: state, Error: rec.Error})
	if terminal {
		close(j.done)
		// The result payload (if any) stays in the record and
		// re-hydrates on demand.
	}
	js.mu.Unlock()
	js.onTransition(state)
	rec.State = state
	rec.Epoch = j.epoch
	rec.FinishedAt = j.finished
	js.saveRecord(j, rec)
	js.removeRecords(pruned)
	return j
}

// register links a job into byID/order and prunes, returning the
// pruned jobs so the caller can remove their durable records after
// releasing the mutex. Caller holds mu.
func (js *jobStore) register(j *job) (pruned []*job) {
	js.byID[j.id] = j
	js.order = append(js.order, j)
	for len(js.order) > maxRetainedJobs {
		victim := -1
		for i, old := range js.order {
			if old.state == api.JobDone || old.state == api.JobFailed {
				victim = i
				break
			}
		}
		if victim < 0 {
			break // everything still active; keep over-retaining
		}
		pruned = append(pruned, js.order[victim])
		delete(js.byID, js.order[victim].id)
		js.order = append(js.order[:victim], js.order[victim+1:]...)
	}
	return pruned
}

// saveRecord persists one job's record outside the store mutex: the
// marshal and temp-file/rename dance can stall on a slow or full disk,
// and under js.mu that stall would freeze every poll, snapshot and
// progress append daemon-wide. saveMu keeps one job's writes ordered.
func (js *jobStore) saveRecord(j *job, rec jobRecord) {
	j.saveMu.Lock()
	js.disk.save(rec)
	j.saveMu.Unlock()
}

// removeRecords drops the durable records of pruned jobs, outside the
// store mutex for the same reason saveRecord runs there.
func (js *jobStore) removeRecords(pruned []*job) {
	for _, j := range pruned {
		j.saveMu.Lock()
		js.disk.remove(j.id)
		j.saveMu.Unlock()
	}
}

// get returns the job by id, or nil.
func (js *jobStore) get(id string) *job {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.byID[id]
}

// recordState reports what the GC needs to know about one record's
// in-memory job: when it finished, whether it is terminal, and whether
// it exists at all (false marks the record an orphan).
func (js *jobStore) recordState(id string) (finished time.Time, terminal, exists bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j := js.byID[id]
	if j == nil {
		return time.Time{}, false, false
	}
	return j.finished, j.state == api.JobDone || j.state == api.JobFailed, true
}

// forget unregisters a terminal job (pollers get 404 afterwards) and
// returns it so the caller can remove its durable record under saveMu;
// nil if the job is gone or not terminal (live jobs are never
// forgotten).
func (js *jobStore) forget(id string) *job {
	js.mu.Lock()
	defer js.mu.Unlock()
	j := js.byID[id]
	if j == nil || (j.state != api.JobDone && j.state != api.JobFailed) {
		return nil
	}
	delete(js.byID, id)
	for i, o := range js.order {
		if o == j {
			js.order = append(js.order[:i], js.order[i+1:]...)
			break
		}
	}
	return j
}

// setState transitions a job: it persists the record (outside the
// store mutex), counts the transition, then publishes the state and its
// lifecycle event, and on terminal states prunes in-memory payloads of
// older finished jobs. Persisting and counting come first so that a
// client that sees the new state finds it durable and in /metrics.
func (js *jobStore) setState(j *job, state, errMsg string, result *api.OptimizeResponse, request json.RawMessage) {
	terminal := state == api.JobDone || state == api.JobFailed
	rec := jobRecord{ID: j.id, State: state, Error: errMsg, Epoch: j.epoch,
		SubmittedAt: j.submitted}
	if terminal {
		rec.FinishedAt = time.Now()
	}
	if result != nil {
		if raw, err := json.Marshal(result); err == nil {
			rec.Result = raw
		}
	}
	if !terminal {
		// Keep the request in the record while the job can still be
		// re-run by a recovery; terminal records drop it (the payload or
		// error is what matters now, and done jobs re-serve, not re-run).
		rec.Request = request
	}
	js.saveRecord(j, rec)
	js.onTransition(state)

	js.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.result = result
	if terminal {
		// Stamped at publication, not at the record write above: the
		// retention TTL counts from when a client could first see the
		// result.
		j.finished = time.Now()
	}
	js.appendEventLocked(j, api.JobEvent{Type: api.EventState, State: state, Error: errMsg})
	if terminal {
		js.pruneResultsLocked()
	}
	js.mu.Unlock()
	if terminal {
		close(j.done)
	}
}

// appendEventLocked buffers one event and wakes subscribers. Caller
// holds mu.
func (js *jobStore) appendEventLocked(j *job, ev api.JobEvent) {
	j.seq++
	ev.Epoch = j.epoch
	ev.Seq = j.seq
	j.events = append(j.events, ev)
	if len(j.events) > maxRetainedEvents {
		j.events = j.events[len(j.events)-maxRetainedEvents:]
	}
	close(j.eventc)
	j.eventc = make(chan struct{})
}

// appendEvent buffers one progress event from a running optimization.
func (js *jobStore) appendEvent(j *job, ev api.JobEvent) {
	js.mu.Lock()
	js.appendEventLocked(j, ev)
	js.mu.Unlock()
}

// eventsSince snapshots the job's events with Seq > after, the channel
// that signals the next append, and whether the job is terminal (no
// further events will ever arrive).
func (js *jobStore) eventsSince(j *job, after int) (evs []api.JobEvent, next <-chan struct{}, terminal bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	for i := range j.events {
		if j.events[i].Seq > after {
			evs = append(evs, j.events[i:]...)
			break
		}
	}
	terminal = j.state == api.JobDone || j.state == api.JobFailed
	return evs, j.eventc, terminal
}

// pruneResultsLocked drops the in-memory result payload of all but the
// most recent maxRetainedResults finished jobs. Caller holds mu.
func (js *jobStore) pruneResultsLocked() {
	kept := 0
	for i := len(js.order) - 1; i >= 0; i-- {
		j := js.order[i]
		if j.result == nil {
			continue
		}
		if kept++; kept > maxRetainedResults {
			j.result = nil
		}
	}
}

// snapshot renders a job's current wire form. A done job whose
// in-memory payload was pruned re-hydrates it from the durable store;
// without one (or with the record gone) the job is reported in the
// distinct result_evicted state — never "done" with a nil result, which
// callers would mistake for success with no payload.
func (js *jobStore) snapshot(j *job) api.Job {
	js.mu.Lock()
	out := api.Job{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		Result:      j.result,
		SubmittedAt: j.submitted,
	}
	js.mu.Unlock()
	if out.State == api.JobDone && out.Result == nil {
		if res, ok := js.disk.loadResult(j.id); ok {
			out.Result = res
		} else {
			out.State = api.JobResultEvicted
			out.Error = "result payload evicted (finished long ago); resubmit the request — the result cache usually still holds it"
		}
	}
	return out
}

// stats counts jobs by state for /healthz.
func (js *jobStore) stats() api.JobStats {
	js.mu.Lock()
	defer js.mu.Unlock()
	var s api.JobStats
	for _, j := range js.order {
		switch j.state {
		case api.JobQueued:
			s.Queued++
		case api.JobRunning:
			s.Running++
		case api.JobDone:
			s.Done++
		case api.JobFailed:
			s.Failed++
		}
	}
	return s
}

// submitJob admits an async request and starts it in the background.
// Admission (and so the 503 queue bound) happens here, before the 202
// is written, so accepted jobs always hold a queue position.
func (s *Server) submitJob(pr *request) (api.Job, error) {
	release, err := s.admit()
	if err != nil {
		return api.Job{}, err
	}
	// Persist the request verbatim so a restart can re-run the job; a
	// marshal failure is impossible for a decoded request (RawMessage
	// design + plain fields) but would only cost durability, not the job.
	raw, _ := json.Marshal(pr.req)
	j := s.jobs.add(raw)
	s.runJob(j, pr, raw, release)
	return s.jobs.snapshot(j), nil
}

// runJob runs one admitted async job in the background, feeding its
// progress event stream. release gives back the queue position.
func (s *Server) runJob(j *job, pr *request, request json.RawMessage, release func()) {
	pr.progress = func(ev api.JobEvent) { s.jobs.appendEvent(j, ev) }
	go func() {
		defer release()
		start := time.Now()
		// The slot wait and the run are bounded by the server lifetime
		// only: the submitting client has already disconnected.
		select {
		case s.sem <- struct{}{}:
			s.metrics.queueWait.Observe(time.Since(start))
			defer func() { <-s.sem }()
		case <-s.runCtx.Done():
			s.jobs.setState(j, api.JobFailed, s.runCtx.Err().Error(), nil, nil)
			return
		}
		s.jobs.setState(j, api.JobRunning, "", nil, request)
		resp, err := s.serve(pr)
		// The async histogram observes the run span of every completed
		// job — slot wait included, failures included: an async caller's
		// Wait experiences the whole span either way, unlike the sync
		// histogram where a fast rejection would pollute the latency of
		// served responses. It observes before the terminal state is
		// published, so a client that sees the job finish and scrapes at
		// once finds the sample.
		s.metrics.optAsync.Observe(time.Since(start))
		if err != nil {
			s.jobs.setState(j, api.JobFailed, err.Error(), nil, nil)
			return
		}
		s.jobs.setState(j, api.JobDone, "", resp, nil)
	}()
}

// recoverJobs replays the durable store on startup: terminal jobs are
// re-registered so they keep re-serving their payloads under their
// original ids, and queued or mid-run jobs are re-validated and
// re-submitted. Recovery runs before the listener serves, so recovered
// work holds queue positions like freshly admitted work.
func (s *Server) recoverJobs() {
	recovered, requeued := 0, 0
	for _, rec := range s.jobs.disk.load() {
		j := s.jobs.adopt(rec)
		if j == nil {
			continue
		}
		recovered++
		if rec.State == api.JobDone || rec.State == api.JobFailed {
			continue
		}
		requeued++
		var req api.OptimizeRequest
		if err := json.Unmarshal(rec.Request, &req); err != nil {
			s.jobs.setState(j, api.JobFailed, fmt.Sprintf("recovery: damaged request record: %v", err), nil, nil)
			continue
		}
		pr, err := s.validateRequest(req, time.Now())
		if err != nil {
			s.jobs.setState(j, api.JobFailed, "recovery: "+err.Error(), nil, nil)
			continue
		}
		release, err := s.admit()
		if err != nil {
			// More surviving jobs than queue positions: fail the overflow
			// explicitly rather than over-admitting (the client's Wait
			// sees a typed failure and can resubmit).
			s.jobs.setState(j, api.JobFailed, "recovery: "+err.Error(), nil, nil)
			continue
		}
		s.runJob(j, pr, rec.Request, release)
	}
	if recovered > 0 {
		s.logf("job store: recovered %d jobs (%d re-queued) from %s",
			recovered, requeued, s.jobs.disk.dir)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.writeJSON(w, http.StatusOK, s.jobs.snapshot(j))
}
