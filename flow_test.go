package smartly

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/genbench"
)

func parseTestdata(t *testing.T, name string) *Design {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseVerilog(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFlowRunEndToEnd(t *testing.T) {
	flow, err := ParseFlow("fixpoint { opt_expr; satmux(conflicts=500); opt_clean }")
	if err != nil {
		t.Fatal(err)
	}
	d := parseTestdata(t, "fig3.v")
	m := d.Top()
	orig := m.Clone()
	before, err := Area(m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flow.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed {
		t.Error("flow changed nothing")
	}
	after, err := Area(m)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("area %d -> %d, expected reduction", before, after)
	}
	if err := CheckEquivalence(orig, m); err != nil {
		t.Fatalf("flow result not equivalent: %v", err)
	}
	if p := rep.Pass("smartly_satmux"); p == nil || p.Calls == 0 {
		t.Errorf("satmux pass missing from report: %+v", rep.Passes)
	}
	if len(rep.Fixpoints) != 1 || rep.Fixpoints[0].Iterations == 0 {
		t.Errorf("fixpoint report missing: %+v", rep.Fixpoints)
	}
	// Timings are stripped by default for deterministic reports.
	if rep.Duration != 0 {
		t.Error("default report carries wall time")
	}
}

func TestFlowWithTimings(t *testing.T) {
	flow, err := NamedFlow("yosys")
	if err != nil {
		t.Fatal(err)
	}
	d := parseTestdata(t, "case4.v")
	rep, err := flow.Run(d.Top(), WithTimings())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration == 0 {
		t.Error("WithTimings left total duration zero")
	}
	sum := false
	for _, p := range rep.Passes {
		if p.Duration > 0 {
			sum = true
		}
	}
	if !sum {
		t.Error("WithTimings left every pass duration zero")
	}
}

func TestFlowWithWorkersDeterministic(t *testing.T) {
	flow, err := NamedFlow("full")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (RunReport, []byte) {
		d := parseTestdata(t, "case4.v")
		rep, err := flow.Run(d.Top(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, d); err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	repSeq, jsonSeq := run(1)
	repPar, jsonPar := run(8)
	if !reflect.DeepEqual(repSeq, repPar) {
		t.Errorf("reports differ by worker count:\n%v\nvs\n%v", repSeq, repPar)
	}
	if !bytes.Equal(jsonSeq, jsonPar) {
		t.Error("netlists differ by worker count")
	}
}

func TestFlowWithLogfAndContext(t *testing.T) {
	flow, err := NamedFlow("yosys")
	if err != nil {
		t.Fatal(err)
	}
	var lines int
	d := parseTestdata(t, "fig3.v")
	if _, err := flow.Run(d.Top(),
		WithLogf(func(string, ...any) { lines++ })); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("WithLogf sink never called")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d2 := parseTestdata(t, "fig3.v")
	if _, err := flow.Run(d2.Top(), WithContext(ctx)); err == nil {
		t.Error("canceled flow run reported success")
	}
}

func TestFlowRunDesign(t *testing.T) {
	flow, err := NamedFlow("full")
	if err != nil {
		t.Fatal(err)
	}
	design, err := ParseVerilog(twoModuleSrc)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := flow.RunDesign(design, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports for %d modules, want 2", len(reports))
	}
	for name, rep := range reports {
		if !rep.Changed {
			t.Errorf("module %s: nothing optimized", name)
		}
		if len(rep.Passes) == 0 {
			t.Errorf("module %s: empty per-pass report", name)
		}
	}
}

// TestRunDesignLogfSerialized: the shared Logf sink must be safe to use
// from a non-thread-safe closure even when modules run concurrently
// (asserted under -race: the append below is unsynchronized).
func TestRunDesignLogfSerialized(t *testing.T) {
	flow, err := NamedFlow("full")
	if err != nil {
		t.Fatal(err)
	}
	design, err := ParseVerilog(twoModuleSrc)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	_, err = flow.RunDesign(design, WithWorkers(4),
		WithLogf(func(format string, args ...any) {
			lines = append(lines, format)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("no log lines from RunDesign")
	}
}

// TestPipelineShimEquivalence: every legacy Pipeline value must produce
// a bit-identical netlist and identical counters to its named flow on
// the testdata designs (the enum is a shim over the flow API).
func TestPipelineShimEquivalence(t *testing.T) {
	for _, file := range []string{"fig3.v", "case4.v"} {
		for _, p := range []Pipeline{PipelineYosys, PipelineSAT, PipelineRebuild, PipelineFull} {
			dEnum := parseTestdata(t, file)
			rEnum, err := Optimize(dEnum.Top(), p)
			if err != nil {
				t.Fatalf("%s/%s: Optimize: %v", file, p, err)
			}
			flow, err := NamedFlow(p.String())
			if err != nil {
				t.Fatalf("%s/%s: NamedFlow: %v", file, p, err)
			}
			dFlow := parseTestdata(t, file)
			rFlow, err := flow.Run(dFlow.Top())
			if err != nil {
				t.Fatalf("%s/%s: flow.Run: %v", file, p, err)
			}
			if rEnum.Changed != rFlow.Changed ||
				!reflect.DeepEqual(rEnum.Details, rFlow.Counters()) {
				t.Errorf("%s/%s: counters differ: enum %v, flow %v",
					file, p, rEnum.Details, rFlow.Counters())
			}
			var a, b bytes.Buffer
			if err := WriteJSON(&a, dEnum); err != nil {
				t.Fatal(err)
			}
			if err := WriteJSON(&b, dFlow); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("%s/%s: netlist differs between enum shim and named flow", file, p)
			}
		}
	}
}

func TestNamedFlowsAndRegistry(t *testing.T) {
	names := FlowNames()
	if !reflect.DeepEqual(names, []string{"datapath", "full", "rebuild", "sat", "seq", "yosys"}) {
		t.Errorf("FlowNames = %v", names)
	}
	if _, err := NamedFlow("bogus"); err == nil {
		t.Error("unknown named flow accepted")
	}
	want := map[string]bool{
		"opt_expr": false, "opt_muxtree": false, "opt_clean": false,
		"opt_reduce": false, "satmux": false, "rebuild": false, "smartly": false,
		"opt_egraph": false, "opt_dff": false,
	}
	for _, spec := range Passes() {
		if _, ok := want[spec.Name]; ok {
			want[spec.Name] = true
		}
		if spec.Summary == "" {
			t.Errorf("pass %s has no summary", spec.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("pass %s missing from registry", name)
		}
	}
}

// TestEveryRegisteredPassConstructibleFromScript: acceptance criterion —
// each registered pass plus the fixpoint wrapper builds from a script.
func TestEveryRegisteredPassConstructibleFromScript(t *testing.T) {
	for _, spec := range Passes() {
		flow, err := ParseFlow(spec.Name)
		if err != nil {
			t.Errorf("ParseFlow(%q): %v", spec.Name, err)
			continue
		}
		if got := flow.String(); got != spec.Name {
			t.Errorf("String() = %q, want %q", got, spec.Name)
		}
	}
	if _, err := ParseFlow("fixpoint(iters=2) { opt_expr }"); err != nil {
		t.Errorf("fixpoint wrapper: %v", err)
	}
}

func TestFacadeIO(t *testing.T) {
	d := parseTestdata(t, "fig3.v")
	var js bytes.Buffer
	if err := WriteJSON(&js, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(bytes.NewReader(js.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Top() == nil || back.Top().NumCells() != d.Top().NumCells() {
		t.Error("JSON round trip lost cells")
	}
	var v strings.Builder
	if err := WriteVerilog(&v, d.Top()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.String(), "module") {
		t.Error("WriteVerilog produced no module")
	}
	st := CollectStats(d.Top())
	if st.NumCells != d.Top().NumCells() || st.NumCells == 0 {
		t.Errorf("CollectStats = %+v", st)
	}
}

func TestParseFlowErrorsAtFacade(t *testing.T) {
	if _, err := ParseFlow("satmux(conflicts=many)"); err == nil ||
		!strings.Contains(err.Error(), "script:1:8") {
		t.Errorf("bad value error: %v", err)
	}
	if _, err := ParseFlow("optexpr"); err == nil ||
		!strings.Contains(err.Error(), "unknown pass") {
		t.Errorf("unknown pass error: %v", err)
	}
}

// TestMacChainCompileDeterministic compiles the mac_chain datapath case
// twice with flow full: the run-report counters and the netlist bytes
// must repeat exactly (the e-graph's class and node counts follow the
// cell order TopoSort hands it).
func TestMacChainCompileDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two datapath compiles")
	}
	flow, err := NamedFlow("full")
	if err != nil {
		t.Fatal(err)
	}
	compile := func() (map[string]int, []byte) {
		m := genbench.Generate(genbench.DatapathRecipes()[0], 0.05)
		rep, err := flow.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDesign()
		d.AddModule(m)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, d); err != nil {
			t.Fatal(err)
		}
		return rep.Counters(), buf.Bytes()
	}
	c1, j1 := compile()
	c2, j2 := compile()
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("counters differ between runs:\n%v\n%v", c1, c2)
	}
	if c1["egraph_classes"] == 0 {
		t.Errorf("opt_egraph did not run: %v", c1)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("netlists differ between runs")
	}
}
