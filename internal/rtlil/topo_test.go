package rtlil

import (
	"fmt"
	"testing"
)

func TestTopoSortOrders(t *testing.T) {
	m := NewModule("m")
	a := m.AddInput("a", 1).Bits()
	b := m.AddInput("b", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	m1 := m.NewWire(1).Bits()
	m2 := m.NewWire(1).Bits()
	// Deliberately add in reverse dependency order.
	g3 := m.AddBinary(CellOr, "g3", m2, a, y)
	g2 := m.AddUnary(CellNot, "g2", m1, m2)
	g1 := m.AddBinary(CellAnd, "g1", a, b, m1)

	order, err := TopoSort(m)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Cell]int{}
	for i, c := range order {
		pos[c] = i
	}
	if !(pos[g1] < pos[g2] && pos[g2] < pos[g3]) {
		t.Errorf("topo order wrong: g1=%d g2=%d g3=%d", pos[g1], pos[g2], pos[g3])
	}
}

func TestTopoSortDetectsLoop(t *testing.T) {
	m := NewModule("m")
	a := m.NewWire(1).Bits()
	b := m.NewWire(1).Bits()
	m.AddUnary(CellNot, "g1", a, b)
	m.AddUnary(CellNot, "g2", b, a)
	if _, err := TopoSort(m); err == nil {
		t.Error("combinational loop not detected")
	}
}

func TestTopoSortDffBreaksLoop(t *testing.T) {
	m := NewModule("m")
	clk := m.AddInput("clk", 1).Bits()
	q := m.NewWire(1).Bits()
	d := m.NewWire(1).Bits()
	m.AddUnary(CellNot, "inv", q, d)
	m.AddDff("ff", clk, d, q)
	order, err := TopoSort(m)
	if err != nil {
		t.Fatalf("dff loop flagged as combinational: %v", err)
	}
	if len(order) != 2 {
		t.Errorf("order has %d cells", len(order))
	}
	// The dff comes first (its Q is a source).
	if order[0].Type != CellDff {
		t.Errorf("first cell is %s, want $dff", order[0].Type)
	}
}

func TestTopoSortThroughConnection(t *testing.T) {
	m := NewModule("m")
	a := m.AddInput("a", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	mid := m.NewWire(1).Bits()
	alias := m.NewWire(1).Bits()
	g1 := m.AddUnary(CellNot, "g1", a, mid)
	m.Connect(alias, mid)
	g2 := m.AddUnary(CellNot, "g2", alias, y)
	order, err := TopoSort(m)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Cell]int{}
	for i, c := range order {
		pos[c] = i
	}
	if pos[g1] > pos[g2] {
		t.Error("dependency through connection not honored")
	}
}

// TestTopoSortDeterministic pins the order when a cell's drivers are
// inserted after it: the DFS must descend into its input ports in name
// order, not in map order, so every call returns the same sequence.
func TestTopoSortDeterministic(t *testing.T) {
	m := NewModule("m")
	in := m.AddInput("in", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	var srcs [6]SigSpec
	for i := range srcs {
		srcs[i] = m.NewWire(1).Bits()
	}
	// A 6-input sink inserted before its drivers; driver d<i> feeds
	// input port P<i>.
	sink := m.AddCell("sink", CellPmux)
	sink.Params["WIDTH"] = 1
	sink.Params["S_WIDTH"] = 4
	sink.SetPort("A", srcs[0])
	sink.SetPort("B", Concat(srcs[1], srcs[2], srcs[3], srcs[4]))
	sink.SetPort("S", Concat(srcs[5], in, in, in))
	sink.SetPort("Y", y)
	for i := len(srcs) - 1; i >= 0; i-- {
		m.AddUnary(CellNot, fmt.Sprintf("d%d", i), in, srcs[i])
	}
	want := []string{"d0", "d1", "d2", "d3", "d4", "d5", "sink"} // A, B (LSB first), S
	for run := 0; run < 50; run++ {
		order, err := TopoSort(m)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, c := range order {
			got = append(got, c.Name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: order %v, want %v", run, got, want)
		}
	}
}
