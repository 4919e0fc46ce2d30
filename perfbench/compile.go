package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/aig"
	"repro/internal/cache"
	"repro/internal/genbench"
	"repro/internal/harness"
	"repro/internal/opt"
	"repro/internal/rtlil"
	"repro/internal/verilog"
)

// compileScale is the genbench scale of every compile case: the scale of
// the committed BENCH_baseline.json, whose areas pin aig_area.
const compileScale = 0.25

// corpusDir holds the Verilog corpus of datapath_proofs, relative to the
// checkout root.
const corpusDir = "testdata/corpus"

// The compile workloads keep the committed recipe seeds at every -seed:
// their compile time depends on the random draw far more than on the
// code (five offset seeds moved table2_full's serial pass between 9.4 and
// 11.7 s and datapath_proofs' between 4.4 and 28.2 s), which would hide
// any change under seed-to-seed spread. The seed drives the simulation
// vectors of the output checks instead.

// compileCase is one design compiled from bytes to optimized bytes.
type compileCase struct {
	name    string
	src     []byte // JSON netlist, or Verilog text when verilog is set
	verilog bool
	top     string
	ref     *rtlil.Module // the unoptimized netlist the checks compare with
	oracle  *simOracle    // built at the first check, outside every timer
}

// compileWorkload compiles its cases with flow "full" in a loop.
type compileWorkload struct {
	workers  int
	wantArea int // the pinned aig_area (README.md: why 84094 on table2_full)
	build    func() ([]*compileCase, error)
	cases    []*compileCase
	seed     int64
}

func newTable2Full() *compileWorkload {
	return &compileWorkload{workers: 1, wantArea: 84094, build: func() ([]*compileCase, error) {
		return recipeCases(genbench.Recipes())
	}}
}

func newDatapathProofs() *compileWorkload {
	return &compileWorkload{workers: runtime.NumCPU(), wantArea: 7653, build: func() ([]*compileCase, error) {
		cases, err := recipeCases(genbench.DatapathRecipes())
		if err != nil {
			return nil, err
		}
		corpus, err := harness.LoadCorpus(corpusDir)
		if err != nil {
			return nil, err
		}
		for _, cc := range corpus {
			src, err := os.ReadFile(filepath.Join(corpusDir, cc.File))
			if err != nil {
				return nil, err
			}
			cases = append(cases, &compileCase{name: cc.Name, src: src, verilog: true, top: cc.Top, ref: cc.Module})
		}
		return cases, nil
	}}
}

// allCaseNames lists every compile case of both compile workloads, for
// the per-case rows of the per-layer metrics.
func allCaseNames() []string {
	var out []string
	for _, r := range append(genbench.Recipes(), genbench.DatapathRecipes()...) {
		out = append(out, r.Name)
	}
	return append(out, "pipeline", "shiftreg", "fsm")
}

// recipeCases generates each recipe and encodes it as a JSON netlist.
func recipeCases(recipes []genbench.Recipe) ([]*compileCase, error) {
	var out []*compileCase
	for _, r := range recipes {
		m := genbench.Generate(r, compileScale)
		d := rtlil.NewDesign()
		d.AddModule(m)
		var buf bytes.Buffer
		if err := rtlil.WriteJSON(&buf, d); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", r.Name, err)
		}
		out = append(out, &compileCase{name: r.Name, src: buf.Bytes(), ref: m})
	}
	return out, nil
}

func (w *compileWorkload) setup(seed int64, _ float64) error {
	cases, err := w.build()
	if err != nil {
		return err
	}
	w.cases, w.seed = cases, seed
	return nil
}

// decode runs the frontend: JSON decode, or Verilog parse and elaborate
// keeping the top module.
func decode(c *compileCase, tr *tracer, parent *span) (*rtlil.Design, error) {
	if !c.verilog {
		s := tr.start("rtlil.read_json", parent)
		d, err := rtlil.ReadJSON(bytes.NewReader(c.src))
		s.end()
		return d, err
	}
	s := tr.start("verilog.parse", parent)
	f, err := verilog.Parse(string(c.src))
	s.end()
	if err != nil {
		return nil, err
	}
	s = tr.start("verilog.elaborate", parent)
	vd, err := verilog.Elaborate(f)
	s.end()
	if err != nil {
		return nil, err
	}
	top := vd.Module(c.top)
	if top == nil {
		return nil, fmt.Errorf("no module %q", c.top)
	}
	d := rtlil.NewDesign()
	d.AddModule(top)
	return d, nil
}

// compiled is the outcome of one compile operation.
type compiled struct {
	out     []byte
	mod     *rtlil.Module
	report  opt.RunReport
	elapsed time.Duration
	allocMB float64
}

// compile takes one case from its source bytes to optimized JSON bytes.
func (w *compileWorkload) compile(flow *opt.Flow, c *compileCase, tr *tracer) (compiled, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.start("case."+c.name, nil)
	d, err := decode(c, tr, &root)
	if err != nil {
		return compiled{}, fmt.Errorf("%s: decode: %w", c.name, err)
	}
	mods := d.Modules()
	if len(mods) != 1 {
		return compiled{}, fmt.Errorf("%s: %d modules, want 1", c.name, len(mods))
	}
	fs := tr.start("opt.flow", &root)
	ec := opt.NewCtx(context.Background(), opt.Config{Workers: w.workers, Progress: tr.passSink(&fs)})
	_, err = flow.Run(ec, mods[0])
	fs.end()
	if err != nil {
		return compiled{}, fmt.Errorf("%s: flow: %w", c.name, err)
	}
	s := tr.start("rtlil.write_json", &root)
	var buf bytes.Buffer
	err = rtlil.WriteJSON(&buf, d)
	s.end()
	if err != nil {
		return compiled{}, fmt.Errorf("%s: encode: %w", c.name, err)
	}
	el := root.end()
	runtime.ReadMemStats(&after)
	return compiled{out: buf.Bytes(), mod: mods[0], report: ec.Report(), elapsed: el,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)}, nil
}

// hit replays the whole-mode cache-hit path of a resubmission in
// process: decode, validate, canonical hash, memory-tier lookup.
func hit(c *compileCase, hits *cache.Cache, flow string, tr *tracer) ([]byte, time.Duration, error) {
	root := tr.start("hit."+c.name, nil)
	d, err := decode(c, tr, &root)
	if err != nil {
		return nil, 0, err
	}
	for _, m := range d.Modules() {
		if err := m.Validate(); err != nil {
			return nil, 0, err
		}
	}
	s := tr.start("rtlil.hash", &root)
	h := rtlil.CanonicalHashDesign(d)
	s.end()
	val, ok := hits.Get(cache.Key{Netlist: h, Flow: flow}.ID())
	el := root.end()
	if !ok {
		return nil, el, fmt.Errorf("%s: cache miss on resubmission", c.name)
	}
	return val, el, nil
}

// layerPasses maps the per-layer pass-time metrics to leaf pass names.
var layerPasses = map[string]string{
	"core.satmux_ms":   "smartly_satmux",
	"core.rebuild_ms":  "smartly_rebuild",
	"egraph.pass_ms":   "opt_egraph",
	"opt.opt_expr_ms":  "opt_expr",
	"opt.opt_clean_ms": "opt_clean",
	"opt.opt_dff_ms":   "opt_dff",
}

// layerCounters maps the per-layer counts to RunReport counter keys.
var layerCounters = map[string]string{
	"core.oracle_queries":  "oracle_queries",
	"core.mux_collapsed":   "mux_collapsed",
	"infer.fact_hits":      "oracle_fact_hits",
	"infer.inference_hits": "oracle_inference_hits",
	"sim.filtered":         "oracle_sim_filtered",
	"sim.vectors":          "oracle_sim_vectors",
	"sat.calls":            "sat_calls",
	"sat.encodings":        "sat_encodings",
	"sat.encode_reuse":     "sat_encode_reuse",
	"core.trees_rebuilt":   "trees_rebuilt",
	"egraph.nodes":         "egraph_nodes",
	"egraph.rules_applied": "egraph_rules_applied",
	"egraph.iters":         "egraph_iters",
	"cec.verified":         "egraph_verified",
	"cec.rejected":         "egraph_verify_rejected",
	"opt.cells_removed":    "cells_removed",
	"cec.seq_proved":       "dff_proved",
}

// firstRun is what the checks remember of a case's first compile: later
// compiles must repeat its area and canonical hash exactly, and a
// RunReport counter that does not repeat is counted as a drift. Output
// bytes are not compared: the encoder's module-level connection order
// varies between runs while the canonical hash holds.
type firstRun struct {
	done     bool
	area     int
	hash     string
	counters map[string]int
	out      []byte // the bytes stored in the hit cache
}

// compileStats accumulates a run's measurements.
type compileStats struct {
	times, allocs [][]float64 // untraced compile ms and MB per case
	hits          [][]float64 // untraced hit ms per case
	tracedMS      []float64   // traced compile ms per case, summed
	pairMS        []float64   // ms of the untraced compiles paired with traced ones, summed
	layer         map[string]float64
}

// A case repeats untraced within a pass until it has run for minCaseMS
// (at most maxCaseReps times), and each compile replays its hit at least
// minHitReps times and until the hits have taken minHitMS (at most
// maxHitReps times), so a case of a few milliseconds gets a steady median.
const (
	minCaseMS   = 200
	maxCaseReps = 20
	minHitReps  = 3
	minHitMS    = 50
	maxHitReps  = 20
)

func (w *compileWorkload) measure(seconds float64, tr *tracer, rep *report) error {
	flow, err := opt.NamedFlow("full")
	if err != nil {
		return err
	}
	hits, err := cache.New(0, "")
	if err != nil {
		return err
	}
	untraced := newTracer(false)
	n := len(w.cases)
	st := &compileStats{times: make([][]float64, n), allocs: make([][]float64, n),
		hits: make([][]float64, n), tracedMS: make([]float64, n), pairMS: make([]float64, n),
		layer: map[string]float64{}}
	first := make([]firstRun, n)

	start := time.Now()
	passes := 0
	for {
		ps := time.Now()
		passCompile := 0.0
		for i := range w.cases {
			spent := 0.0
			if tr.on {
				// A traced run compiles each case once traced and once
				// not, alternating which goes first so warm-up does not
				// bias the overhead.
				order := []*tracer{untraced, tr}
				if (i+passes)%2 == 1 {
					order = []*tracer{tr, untraced}
				}
				for _, ptr := range order {
					d := w.op(flow, hits, i, &first[i], ptr, st, rep)
					if !ptr.on {
						st.pairMS[i] += d
					}
					spent += d
				}
			}
			for reps := 0; reps < maxCaseReps && (reps == 0 && !tr.on || spent < minCaseMS); reps++ {
				spent += w.op(flow, hits, i, &first[i], untraced, st, rep)
			}
			passCompile += spent
		}
		passes++
		rep.note("pass %d: %.2f s, %.2f s compiling", passes, time.Since(ps).Seconds(), passCompile/1000)
		if (time.Since(start) + time.Since(ps)).Seconds() > seconds {
			break
		}
	}
	var sumS, sumAlloc float64
	var caseMS, hitMS []float64
	area, compiles := 0, 0
	for i := range w.cases {
		m := median(st.times[i])
		caseMS = append(caseMS, m)
		hitMS = append(hitMS, median(st.hits[i]))
		sumS += m / 1000
		sumAlloc += median(st.allocs[i])
		area += first[i].area
		compiles += len(st.times[i])
		rep.note("case %-14s compile %9.2f ms  hit %8.3f ms  alloc %8.1f MB  (%d compiles)",
			w.cases[i].name, m, hitMS[i], median(st.allocs[i]), len(st.times[i]))
	}
	rep.note("%d passes over %d cases, %d untraced compiles (traced run: %v); per-case medians feed every metric",
		passes, n, compiles, tr.on)
	// Determinism self-check: the inputs are the committed recipes at
	// every seed, so the area is pinned.
	if area != w.wantArea {
		rep.op(fmt.Errorf("determinism self-check: aig_area %d, want %d", area, w.wantArea))
	}
	rep.set("compile_s", sumS)
	rep.set("compile_geomean_ms", geomean(caseMS))
	rep.set("aig_area", float64(area))
	// The cases' sizes span 30x: the geometric mean of their median hit
	// times is the typical case, where a median over cases would rest on
	// the two middle cases alone.
	rep.set("hit_p50_ms", geomean(hitMS))
	rep.set("hit_p95_ms", quantile(hitMS, 0.95))
	rep.set("edit_p50_ms", median(caseMS))
	rep.set("req_per_s", ratio(float64(n), sumS))
	rep.set("alloc_mb", sumAlloc)
	if !tr.on {
		return nil
	}

	p := float64(passes)
	for name, v := range st.layer {
		rep.set(name, v/p)
	}
	for name, pass := range layerPasses {
		rep.set(name, ms(tr.total("pass."+pass))/p)
	}
	for _, s := range []string{"rtlil.read_json", "rtlil.write_json", "rtlil.hash", "rtlil.index",
		"verilog.parse", "verilog.elaborate", "aig.area"} {
		rep.set(s+"_ms", ms(tr.total(s))/p)
	}
	tracedSum := 0.0
	for i, c := range w.cases {
		rep.set("case."+c.name+".compile_ms", st.tracedMS[i]/p)
		tracedSum += st.tracedMS[i] / p
	}
	untracedSum := sumOf(st.pairMS) / p
	rep.set("trace.overhead_ms", tracedSum-untracedSum)
	rep.note("tracing overhead: traced minus untraced compile time %.1f ms per pass (%.2f%%)",
		tracedSum-untracedSum, 100*ratio(tracedSum-untracedSum, untracedSum))
	l := st.layer
	rep.set("sim.filter_ratio", ratio(l["sim.filtered"], l["sim.filtered"]+l["sat.calls"]))
	rep.set("sat.calls_per_query", ratio(l["sat.calls"], l["core.oracle_queries"]))
	rep.set("cec.accept_ratio", ratio(l["cec.verified"], l["cec.verified"]+l["cec.rejected"]))
	rep.set("check.counter_drift", float64(rep.drifts))
	return nil
}

// op compiles case i once under ptr, checks the output, then replays its
// resubmission through the hit path. Each compile and each
// hit is one checked operation; a compile whose check fails still counts
// its time, so every run holds the same samples. It returns the compile
// time in ms.
func (w *compileWorkload) op(flow *opt.Flow, hits *cache.Cache, i int, f *firstRun, ptr *tracer,
	st *compileStats, rep *report) float64 {
	c := w.cases[i]
	runtime.GC()
	res, err := w.compile(flow, c, ptr)
	if err != nil {
		rep.op(err)
		return 0
	}
	as := ptr.start("aig.area", nil)
	area, err := aig.Area(res.mod)
	as.end()
	repeat := f.done
	if err == nil {
		err = w.check(flow, hits, c, f, res, area)
	}
	rep.op(err)
	if err == nil && repeat {
		rep.counterDrift(counterDrift(c.name, f.counters, res.report.Counters()))
	}
	// A traced compile replays its hit once, so the per-layer codec rows
	// count one compile and one hit per case.
	reps, spent := maxHitReps, 0.0
	if ptr.on {
		reps = 1
	}
	for r := 0; r < reps && (r < minHitReps || spent < minHitMS); r++ {
		runtime.GC()
		out, hel, err := hit(c, hits, flow.Canonical(), ptr)
		spent += ms(hel)
		if err == nil && !bytes.Equal(out, f.out) {
			err = fmt.Errorf("%s: resubmission returned bytes other than the stored result", c.name)
		}
		rep.op(err)
		if !ptr.on {
			st.hits[i] = append(st.hits[i], ms(hel))
		}
	}

	if !ptr.on {
		st.times[i] = append(st.times[i], ms(res.elapsed))
		st.allocs[i] = append(st.allocs[i], res.allocMB)
		return ms(res.elapsed)
	}
	st.tracedMS[i] += ms(res.elapsed)
	is := ptr.start("rtlil.index", nil)
	rtlil.NewIndex(res.mod)
	is.end()
	st.layer["rtlil.cells_in"] += float64(c.ref.NumCells())
	st.layer["rtlil.cells_out"] += float64(res.mod.NumCells())
	st.layer["rtlil.json_mb"] += float64(len(c.src)+len(res.out)) / (1 << 20)
	for _, p := range res.report.Passes {
		st.layer["opt.pass_calls"] += float64(p.Calls)
	}
	counters := res.report.Counters()
	for name, key := range layerCounters {
		st.layer[name] += float64(counters[key])
	}
	return ms(res.elapsed)
}

// check validates one compile result against its input (simulation or
// k-induction) and against the case's first compile. The first compile
// also stores its output in the hit cache under the input's key.
func (w *compileWorkload) check(flow *opt.Flow, hits *cache.Cache, c *compileCase, f *firstRun, res compiled, area int) error {
	if c.oracle == nil {
		o, err := newSimOracle(c.ref, w.seed)
		if err != nil {
			return err
		}
		c.oracle = o
	}
	if err := c.oracle.check(res.mod); err != nil {
		return err
	}
	hash := rtlil.CanonicalHash(res.mod)
	if !f.done {
		in, err := decode(c, newTracer(false), nil)
		if err != nil {
			return err
		}
		hits.Put(cache.Key{Netlist: rtlil.CanonicalHashDesign(in), Flow: flow.Canonical()}.ID(), res.out)
		*f = firstRun{done: true, area: area, hash: hash, counters: res.report.Counters(), out: res.out}
		return nil
	}
	if area != f.area || hash != f.hash {
		return fmt.Errorf("%s: area %d hash %.12s, first compile area %d hash %.12s", c.name, area, hash, f.area, f.hash)
	}
	return nil
}

// counterDrift describes the first RunReport counter of a repeated
// compile that differs from the case's first compile, or returns "" when
// every counter repeats. A drift is a determinism defect of the program,
// not a wrong output: check has already required the same area and
// canonical hash, so it is counted and printed apart from failed checks.
func counterDrift(name string, first, got map[string]int) string {
	keys := make([]string, 0, len(first)+len(got))
	for k := range first {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := first[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != first[k] {
			return fmt.Sprintf("%s: counter %s = %d, first compile %d", name, k, got[k], first[k])
		}
	}
	return ""
}
