package rtlil_test

import (
	"bytes"
	"testing"

	"repro/internal/rtlil"
)

// FuzzReadJSON feeds the netlist reader arbitrary bytes. Any input must
// come back as a design or an error, never a panic or a hang. An
// accepted design must survive a write/read round trip with its
// canonical hash, must write the bytes the reference writer compacts
// to, must hash the reference canonical stream, and wherever the
// reference reader accepts the input as well, both readers must build
// the same design.
//
//	go test ./internal/rtlil -run FuzzReadJSON -fuzz FuzzReadJSON -fuzztime 30s
func FuzzReadJSON(f *testing.F) {
	seed := func(d *rtlil.Design) {
		var out, ind bytes.Buffer
		if err := rtlil.WriteJSON(&out, d); err != nil {
			f.Fatal(err)
		}
		if err := rtlil.RefWriteJSON(&ind, d); err != nil {
			f.Fatal(err)
		}
		f.Add(out.Bytes())
		f.Add(ind.Bytes())
	}
	one := func(m *rtlil.Module) *rtlil.Design {
		d := rtlil.NewDesign()
		d.AddModule(m)
		return d
	}
	// Seeds stay small (a few hundred bytes): the fuzzer minimizes every
	// new interesting input, which takes long on large ones.
	seed(one(escapeModule()))
	two := rtlil.NewDesign()
	for _, name := range []string{"a", "b"} {
		m := rtlil.NewModule(name)
		x, y := m.AddInput("x", 2), m.AddOutput("y", 2)
		m.AddBinary(rtlil.CellXor, "g", x.Bits(), rtlil.ConstBits(rtlil.S1, rtlil.Sx), y.Bits())
		two.AddModule(m)
	}
	seed(two)
	for _, s := range []string{
		`{}`,
		`{"creator":"x","modules":{}}`,
		`{"modules":{"m":{"ports":{"a":{"direction":"input","bits":[2]}},"netnames":{"a":{"bits":[2]},"b":{"bits":[2,"x"]}}}}}`,
		`{"modules":{"m":{"netnames":{"w":{"bits":[2]}},"cells":{"":{"type":"$not","connections":{"A":[2],"Y":["1"]}}}}}}`,
		`{"modules":{"m":{"netnames":{"w":{"bits":[2,3]}},"connections":[[[2],[3]],[[],[]]]}}}`,
		`{"modules":{"m\u00e9\ud83d\ude00":{"attributes":{"k":[1,{"x":null}]},"netnames":{"\ud800":{"bits":[5]}}}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := rtlil.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := writeJSON(t, d)
		if want := compactRef(t, d); !bytes.Equal(out, want) {
			t.Fatalf("WriteJSON differs from compacted reference:\n%s", firstDiff(out, want))
		}
		checkHash(t, d)
		back, err := rtlil.ReadJSON(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("written netlist rejected: %v", err)
		}
		if rtlil.CanonicalHashDesign(back) != rtlil.CanonicalHashDesign(d) {
			t.Fatalf("round trip changed the canonical hash")
		}
		if ref := refRead(data); ref != nil {
			if w := writeJSON(t, ref); !bytes.Equal(out, w) {
				t.Fatalf("readers disagree:\n%s", firstDiff(out, w))
			}
		}
	})
}

// refRead runs the reference reader, which panics on some malformed
// input; a panic counts as rejection.
func refRead(data []byte) (d *rtlil.Design) {
	defer func() {
		if recover() != nil {
			d = nil
		}
	}()
	d, err := rtlil.RefReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil
	}
	return d
}
