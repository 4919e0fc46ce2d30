package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/client"
	"repro/internal/aig"
	"repro/internal/genbench"
	"repro/internal/rtlil"
	"repro/internal/server"
	"repro/internal/server/api"
)

// serve_mix drives an in-process smartlyd behind a loopback listener
// with a closed loop of nproc client goroutines. Resubmit designs are
// small Table II cases (at most 0.5 MB of JSON), so a run holds hundreds
// of cache-hit samples; a warm design-mode hit on a multi-MB design would
// leave too few. Each seed draws its own request schedule and edit
// mutations; the resubmit designs keep the committed recipe seeds, whose
// cold compile time sets compile_s here.
const (
	serveScale = 0.25
	editScale  = 0.05
	// editOneIn makes one request in each block of editOneIn an edit, at
	// a seeded position, so every run has the same mix.
	editOneIn = 10
	// editsPerSecond sizes each client's pre-generated edit pool, with
	// room over the 3.4-4.9 edits per client second measured when it was
	// written; a client that runs past its schedule sends resubmits only
	// and the run says so.
	editsPerSecond = 8
)

// resubmitCases and editCases name the Table II recipes the resubmit
// designs and the modules of the edited design are drawn from.
var (
	resubmitCases = []string{"ac97_ctrl", "ethernet", "usb_funct", "riscv"}
	editCases     = []string{"ac97_ctrl", "ethernet", "usb_funct"}
)

// editSeedStride separates mutation generations' recipe seeds.
const editSeedStride = 104729

type resubmit struct {
	name   string
	req    []byte        // the request's design JSON
	ref    *rtlil.Module // the unoptimized module
	primed []byte        // the optimized design JSON of the priming request
}

// edit is a design-mode request: the edit base design with module
// `module` regenerated at mutation generation gen.
type edit struct {
	req         []byte
	module, gen int
}

// slot is one scheduled request: an edit (index into the client's
// edits) or a resubmission (index into resubmits).
type slot struct {
	edit bool
	idx  int
}

type serveMix struct {
	clients   int
	seed      int64
	resubmits []*resubmit
	primeMS   map[string][]float64 // cold client latency per resubmit design, one per setup
	editBase  []*rtlil.Module
	baseJSON  []json.RawMessage // editBase's module objects
	edits     [][]edit          // per client
	slots     [][]slot          // per client
	srv       *server.Server
	hs        *http.Server
	served    chan struct{} // closed when hs.Serve has returned
	cl        *client.Client
	transport *http.Transport
}

func newServeMix() *serveMix {
	return &serveMix{clients: runtime.NumCPU(), primeMS: map[string][]float64{}}
}

func recipeByName(name string) genbench.Recipe {
	for _, r := range genbench.Recipes() {
		if r.Name == name {
			return r
		}
	}
	panic("perfbench: unknown recipe " + name)
}

func encodeDesign(mods ...*rtlil.Module) ([]byte, error) {
	d := rtlil.NewDesign()
	for _, m := range mods {
		d.AddModule(m)
	}
	var buf bytes.Buffer
	err := rtlil.WriteJSON(&buf, d)
	return buf.Bytes(), err
}

// moduleJSON encodes m alone and returns its module object.
func moduleJSON(m *rtlil.Module) (json.RawMessage, error) {
	raw, err := encodeDesign(m)
	if err != nil {
		return nil, err
	}
	var d struct {
		Modules map[string]json.RawMessage `json:"modules"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	return d.Modules[m.Name], nil
}

// designJSON assembles a design netlist from its modules' objects, so an
// edit payload costs one module encode instead of the whole design's.
func designJSON(mods []*rtlil.Module, objs []json.RawMessage) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"creator":"perfbench","modules":{`)
	for i, m := range mods {
		if i > 0 {
			buf.WriteByte(',')
		}
		name, _ := json.Marshal(m.Name) // a string always marshals
		buf.Write(name)
		buf.WriteByte(':')
		buf.Write(objs[i])
	}
	buf.WriteString("}}")
	return buf.Bytes()
}

// editModule generates module i of the edited design at mutation
// generation gen (0 = the base design).
func (s *serveMix) editModule(i, gen int) *rtlil.Module {
	r := recipeByName(editCases[i])
	r.Name = fmt.Sprintf("e%d_%s", i, r.Name)
	r.Seed += 1000*s.seed + int64(gen)*editSeedStride
	return genbench.Generate(r, editScale)
}

// setup starts a fresh daemon, primes every resubmit design and the edit
// base design, and draws each client's schedule with its edit payloads.
func (s *serveMix) setup(seed int64, seconds float64) error {
	s.stop()
	s.seed = seed
	s.resubmits = nil
	for _, name := range resubmitCases {
		m := genbench.Generate(recipeByName(name), serveScale)
		req, err := encodeDesign(m)
		if err != nil {
			return err
		}
		s.resubmits = append(s.resubmits, &resubmit{name: name, req: req, ref: m})
	}
	s.srv = server.New(server.Config{QueueDepth: 16 * s.clients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	s.transport = &http.Transport{MaxIdleConnsPerHost: s.clients}
	s.cl = client.New("http://" + ln.Addr().String())
	s.cl.SetHTTPClient(&http.Client{Transport: s.transport})

	ctx := context.Background()
	for _, r := range s.resubmits {
		start := time.Now()
		resp, err := s.cl.Optimize(ctx, api.OptimizeRequest{Design: r.req, Flow: "full"})
		if err != nil {
			return fmt.Errorf("priming %s: %w", r.name, err)
		}
		s.primeMS[r.name] = append(s.primeMS[r.name], ms(time.Since(start)))
		r.primed = resp.Design
	}

	s.editBase, s.baseJSON = nil, nil
	for i := range editCases {
		m := s.editModule(i, 0)
		obj, err := moduleJSON(m)
		if err != nil {
			return err
		}
		s.editBase = append(s.editBase, m)
		s.baseJSON = append(s.baseJSON, obj)
	}
	base := designJSON(s.editBase, s.baseJSON)
	if _, err := s.cl.Optimize(ctx, api.OptimizeRequest{Design: base, Flow: "full", Mode: api.ModeDesign}); err != nil {
		return fmt.Errorf("priming edit base: %w", err)
	}
	return s.schedule(seconds)
}

// schedule draws each client's request sequence from the seed and
// pre-generates its edit payloads, each regenerating one module at a
// fresh mutation generation, so the module tier misses once per edit.
func (s *serveMix) schedule(seconds float64) error {
	perClient := int(seconds*editsPerSecond) + 1
	s.edits = make([][]edit, s.clients)
	s.slots = make([][]slot, s.clients)
	for c := 0; c < s.clients; c++ {
		rng := rand.New(rand.NewSource(s.seed*7919 + int64(c) + 1))
		editAt := rng.Intn(editOneIn)
		for k := 0; len(s.edits[c]) < perClient; k++ {
			if k%editOneIn == 0 && k > 0 {
				editAt = rng.Intn(editOneIn)
			}
			if k%editOneIn != editAt {
				s.slots[c] = append(s.slots[c], slot{idx: rng.Intn(len(s.resubmits))})
				continue
			}
			i := rng.Intn(len(editCases))
			gen := 1 + len(s.edits[c])*s.clients + c
			obj, err := moduleJSON(s.editModule(i, gen))
			if err != nil {
				return err
			}
			objs := append([]json.RawMessage(nil), s.baseJSON...)
			objs[i] = obj
			s.slots[c] = append(s.slots[c], slot{edit: true, idx: len(s.edits[c])})
			s.edits[c] = append(s.edits[c], edit{req: designJSON(s.editBase, objs), module: i, gen: gen})
		}
	}
	return nil
}

func (s *serveMix) stop() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a forced close after the timeout is fine: the run is over
	<-s.served
	s.transport.CloseIdleConnections()
	s.srv.Close()
	s.hs = nil
}

// sample is one completed request. An edit keeps its response for the
// check after timing; a resubmission was checked on the spot.
type sample struct {
	edit *edit
	resp *api.OptimizeResponse
	ms   float64
	err  error
}

// phase runs the closed loop for dur, continuing every client's schedule
// from next[c].
func (s *serveMix) phase(dur time.Duration, tr *tracer, next []int, rep *report) ([]sample, time.Duration) {
	var mu sync.Mutex
	var samples []sample
	overrun := make([]int, s.clients) // requests past the end of each client's schedule
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				sl := slot{idx: next[c] % len(s.resubmits)}
				if next[c] < len(s.slots[c]) {
					sl = s.slots[c][next[c]]
				} else {
					overrun[c]++
				}
				next[c]++
				smp := s.request(ctx, c, sl, tr)
				mu.Lock()
				samples = append(samples, smp)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	n := 0
	for _, o := range overrun {
		n += o
	}
	if n > 0 {
		rep.note("WARNING: clients ran past their scheduled edits and sent %d extra resubmits; raise editsPerSecond", n)
	}
	return samples, wall
}

// request sends one scheduled request and times it from the call to the
// decoded response (the last response byte).
func (s *serveMix) request(ctx context.Context, c int, sl slot, tr *tracer) sample {
	req := api.OptimizeRequest{Flow: "full"}
	name := "serve.resubmit"
	var e *edit
	if sl.edit {
		e = &s.edits[c][sl.idx]
		req.Design, req.Mode, name = e.req, api.ModeDesign, "serve.edit"
	} else {
		req.Design = s.resubmits[sl.idx].req
	}
	sp := tr.start(name, nil)
	resp, err := s.cl.Optimize(ctx, req)
	smp := sample{edit: e, resp: resp, ms: ms(sp.end()), err: err}
	if err == nil && e == nil {
		r := s.resubmits[sl.idx]
		if resp.Cache != "hit" || !bytes.Equal(resp.Design, r.primed) {
			smp.err = fmt.Errorf("resubmit %s: cache %q, design equal to primed: %v",
				r.name, resp.Cache, bytes.Equal(resp.Design, r.primed))
		}
		smp.resp = nil // checked; do not hold the response
	}
	return smp
}

func (s *serveMix) measure(seconds float64, tr *tracer, rep *report) error {
	defer s.stop()

	// The primed responses must match their inputs.
	area := 0
	var primeMS []float64
	for _, r := range s.resubmits {
		d, err := rtlil.ReadJSON(bytes.NewReader(r.primed))
		if err == nil && len(d.Modules()) != 1 {
			err = fmt.Errorf("primed %s: %d modules", r.name, len(d.Modules()))
		}
		if err == nil {
			var o *simOracle
			if o, err = newSimOracle(r.ref, s.seed); err == nil {
				err = o.check(d.Modules()[0])
			}
		}
		if err == nil {
			sp := tr.start("aig.area", nil)
			var a int
			a, err = aig.Area(d.Modules()[0])
			sp.end()
			area += a
		}
		rep.op(err)
		primeMS = append(primeMS, median(s.primeMS[r.name]))
	}

	// A traced run spends half its time untraced, for the overhead.
	next := make([]int, s.clients)
	phaseDur := time.Duration(seconds * float64(time.Second))
	if tr.on {
		phaseDur /= 2
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	samples, wall := s.phase(phaseDur, newTracer(false), next, rep)
	runtime.ReadMemStats(&after)
	var traced []sample
	if tr.on {
		runtime.GC()
		traced, _ = s.phase(phaseDur, tr, next, rep)
	}

	hitMS, editMS := s.check(samples, rep)
	tracedHit, _ := s.check(traced, rep)
	rep.note("untraced phase %.1f s: %d resubmit samples, %d edit samples, %d clients (closed loop)",
		wall.Seconds(), len(hitMS), len(editMS), s.clients)

	requests := float64(len(samples))
	rep.set("compile_s", sumOf(primeMS)/1000)
	rep.set("compile_geomean_ms", geomean(primeMS))
	rep.set("aig_area", float64(area))
	rep.set("hit_p50_ms", median(hitMS))
	rep.set("hit_p95_ms", quantile(hitMS, 0.95))
	rep.set("edit_p50_ms", median(editMS))
	rep.set("req_per_s", requests/wall.Seconds())
	rep.set("alloc_mb", ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), requests))
	if !tr.on {
		return nil
	}

	h, err := s.cl.Health(context.Background())
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	rep.set("trace.overhead_ms", median(tracedHit)-median(hitMS))
	rep.set("cache.hit_ratio", ratio(float64(h.Cache.Hits), float64(h.Cache.Hits+h.Cache.Misses)))
	rep.set("cache.puts", float64(h.Cache.Puts))
	rep.set("cache.bytes", float64(h.Cache.Bytes)/(1<<20))
	if h.Metrics != nil {
		rep.set("server.sync_p50_ms", h.Metrics.OptimizeSync.P50MS)
		rep.set("server.queue_wait_p50_ms", h.Metrics.QueueWait.P50MS)
		rep.set("server.client_gap_ratio", ratio(median(hitMS), h.Metrics.OptimizeSync.P50MS))
	}
	return s.codecLayers(tr, rep)
}

// check counts every sample as an operation: a failed request or
// resubmit comparison fails it, and each edit response must match its
// unoptimized modules. It returns the latencies of the successful
// resubmissions and edits.
func (s *serveMix) check(samples []sample, rep *report) (hitMS, editMS []float64) {
	oracles := map[*rtlil.Module]*simOracle{}
	for _, smp := range samples {
		err := smp.err
		if err == nil && smp.edit != nil {
			err = s.checkEdit(*smp.edit, smp.resp, oracles)
		}
		rep.op(err)
		switch {
		case err != nil:
		case smp.edit != nil:
			editMS = append(editMS, smp.ms)
		default:
			hitMS = append(hitMS, smp.ms)
		}
	}
	return hitMS, editMS
}

// codecLayers times the frontend, hash and encoder outside-in on the
// exact resubmit payloads: the layers a cache hit pays for inside the
// daemon, which its optimize span does not cover.
func (s *serveMix) codecLayers(tr *tracer, rep *report) error {
	const reps = 5
	var read, hash, write, index, mb float64
	for _, r := range s.resubmits {
		for i := 0; i < reps; i++ {
			sp := tr.start("rtlil.read_json", nil)
			d, err := rtlil.ReadJSON(bytes.NewReader(r.req))
			read += ms(sp.end())
			if err != nil {
				return err
			}
			sp = tr.start("rtlil.hash", nil)
			rtlil.CanonicalHashDesign(d)
			hash += ms(sp.end())
			sp = tr.start("rtlil.index", nil)
			rtlil.NewIndex(d.Modules()[0])
			index += ms(sp.end())
			out, err := rtlil.ReadJSON(bytes.NewReader(r.primed))
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			sp = tr.start("rtlil.write_json", nil)
			err = rtlil.WriteJSON(&buf, out)
			write += ms(sp.end())
			if err != nil {
				return err
			}
		}
		mb += float64(len(r.req)) / (1 << 20)
	}
	n := float64(reps * len(s.resubmits))
	rep.set("rtlil.read_json_ms", read/n)
	rep.set("rtlil.hash_ms", hash/n)
	rep.set("rtlil.index_ms", index/n)
	rep.set("rtlil.write_json_ms", write/n)
	rep.set("rtlil.json_mb", mb/float64(len(s.resubmits)))
	rep.set("aig.area_ms", ms(tr.total("aig.area")))
	return nil
}

// checkEdit decodes an edit response and checks every module against the
// request's unoptimized module of the same name, regenerated from its
// recipe.
func (s *serveMix) checkEdit(e edit, resp *api.OptimizeResponse, oracles map[*rtlil.Module]*simOracle) error {
	d, err := rtlil.ReadJSON(bytes.NewReader(resp.Design))
	if err != nil {
		return fmt.Errorf("edit response: %w", err)
	}
	for i, ref := range s.editBase {
		if i == e.module {
			ref = s.editModule(i, e.gen)
		}
		got := d.Module(ref.Name)
		if got == nil {
			return fmt.Errorf("edit response lacks module %s", ref.Name)
		}
		o := oracles[ref]
		if o == nil {
			if o, err = newSimOracle(ref, s.seed); err != nil {
				return err
			}
			oracles[ref] = o
		}
		if err := o.check(got); err != nil {
			return fmt.Errorf("edit response: %w", err)
		}
	}
	return nil
}
