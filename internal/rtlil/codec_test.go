package rtlil_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/genbench"
	"repro/internal/rtlil"
	"repro/internal/verilog"
)

// The codec contracts, checked against the reference implementations
// kept in json_ref_test.go and hash_ref_test.go:
//
//   - WriteJSON's bytes equal json.Compact of the reference indented
//     writer's;
//   - ReadJSON builds the same design as the reference reader (compared
//     as WriteJSON bytes) on everything both accept;
//   - the canonical hash streams exactly the reference byte sequence;
//   - a write/read round trip keeps the canonical hash.

// codecCorpus returns every design the contracts are checked on: the
// testdata Verilog cases, every genbench recipe family and a few
// hand-built modules that exercise escaping and aliasing.
func codecCorpus(t testing.TB) map[string]*rtlil.Design {
	t.Helper()
	out := map[string]*rtlil.Design{}
	var paths []string
	for _, pat := range []string{"../../testdata/*.v", "../../testdata/corpus/*.v"} {
		ps, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata Verilog cases")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := verilog.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		d, err := verilog.Elaborate(f)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = d
	}

	const scale = 0.02
	single := func(m *rtlil.Module) *rtlil.Design {
		d := rtlil.NewDesign()
		d.AddModule(m)
		return d
	}
	var recipes []genbench.Recipe
	recipes = append(recipes, genbench.Recipes()...)
	recipes = append(recipes, genbench.DatapathRecipes()...)
	recipes = append(recipes, genbench.SeqRecipes()...)
	recipes = append(recipes, genbench.IndustrialRecipe(0), genbench.RandomSeqRecipe(1))
	for _, r := range recipes {
		out["genbench/"+r.Name] = single(genbench.Generate(r, scale))
	}
	out["genbench/design"] = genbench.GenerateDesign(genbench.DesignRecipe{Name: "d", Modules: 4, Seed: 3}, scale)
	out["edge/escapes"] = single(escapeModule())
	return out
}

// escapeModule holds names that need JSON escaping and canonical
// quoting, constants of all four states, aliases, a module-level
// connection list and negative parameters.
func escapeModule() *rtlil.Module {
	m := rtlil.NewModule("top \"<&>\" \\ \u00e9")
	a := m.AddInput("a\tb\n", 3)
	s := m.AddInput("s\u2028\u2029\x01\x7f", 1)
	y := m.AddOutput("y\U0001F600", 3)
	t := m.AddWire("t\b\f\r", 3)
	c := m.AddMux("mux <1>", a.Bits(), rtlil.ConstBits(rtlil.S1, rtlil.Sx, rtlil.Sz), s.Bits(), t.Bits())
	c.Params["NEG"] = -12345678901
	m.Connect(y.Bits(), t.Bits())
	m.Connect(rtlil.SigSpec{m.AddWire("k", 1).Bit(0)}, rtlil.ConstBits(rtlil.S0))
	return m
}

func compactRef(t testing.TB, d *rtlil.Design) []byte {
	t.Helper()
	var ind, out bytes.Buffer
	if err := rtlil.RefWriteJSON(&ind, d); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&out, ind.Bytes()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func writeJSON(t testing.TB, d *rtlil.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rtlil.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sortedModules(d *rtlil.Design) []*rtlil.Module {
	mods := slices.Clone(d.Modules())
	slices.SortFunc(mods, func(a, b *rtlil.Module) int { return strings.Compare(a.Name, b.Name) })
	return mods
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkHash compares the streaming hasher with the reference stream.
func checkHash(t testing.TB, d *rtlil.Design) {
	t.Helper()
	for _, m := range d.Modules() {
		got, want := rtlil.CanonicalBytes(m), rtlil.RefCanonicalBytes(m)
		if !bytes.Equal(got, want) {
			t.Fatalf("module %q: canonical stream differs from reference:\n%s", m.Name, firstDiff(got, want))
		}
		if h := rtlil.CanonicalHash(m); h != sha(want) {
			t.Fatalf("module %q: CanonicalHash %s, reference %s", m.Name, h, sha(want))
		}
	}
	if h, want := rtlil.CanonicalHashDesign(d), sha(rtlil.RefCanonicalBytes(sortedModules(d)...)); h != want {
		t.Fatalf("CanonicalHashDesign %s, reference %s", h, want)
	}
}

// firstDiff renders the neighborhood of the first differing byte.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Sprintf("at byte %d\n got: %q\nwant: %q", i, got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
}

func TestCodecMatchesReference(t *testing.T) {
	for name, d := range codecCorpus(t) {
		t.Run(name, func(t *testing.T) {
			out := writeJSON(t, d)
			if want := compactRef(t, d); !bytes.Equal(out, want) {
				t.Fatalf("WriteJSON differs from compacted reference:\n%s", firstDiff(out, want))
			}
			checkHash(t, d)

			// Both readers, on both the compact and the indented form.
			var ind bytes.Buffer
			if err := rtlil.RefWriteJSON(&ind, d); err != nil {
				t.Fatal(err)
			}
			for form, raw := range map[string][]byte{"compact": out, "indented": ind.Bytes()} {
				got, err := rtlil.ReadJSON(bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("%s: ReadJSON: %v", form, err)
				}
				ref, err := rtlil.RefReadJSON(bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("%s: RefReadJSON: %v", form, err)
				}
				if g, w := writeJSON(t, got), writeJSON(t, ref); !bytes.Equal(g, w) {
					t.Fatalf("%s: readers disagree:\n%s", form, firstDiff(g, w))
				}
				checkHash(t, got)
				if g, w := rtlil.CanonicalHashDesign(got), rtlil.CanonicalHashDesign(d); g != w {
					t.Fatalf("%s: round trip changed the canonical hash", form)
				}
				for _, m := range got.Modules() {
					if err := m.Validate(); err != nil {
						t.Fatalf("%s: round-tripped module %s invalid: %v", form, m.Name, err)
					}
				}
			}
		})
	}
}

// TestWriteJSONInvalidUTF8 pins the writer's escaping of names that are
// not valid UTF-8 against encoding/json's, and the reader's replacement
// of them.
func TestWriteJSONInvalidUTF8(t *testing.T) {
	m := rtlil.NewModule("bad\xffname\xc3")
	m.AddInput("w\xe2\x80", 1)
	d := rtlil.NewDesign()
	d.AddModule(m)
	out := writeJSON(t, d)
	if want := compactRef(t, d); !bytes.Equal(out, want) {
		t.Fatalf("WriteJSON differs from compacted reference:\n%s", firstDiff(out, want))
	}
	checkHash(t, d)
	got, err := rtlil.ReadJSON(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got.Module("bad\ufffdname\ufffd") == nil {
		t.Fatalf("invalid UTF-8 not replaced: %q", got.Modules()[0].Name)
	}
}

// TestWriteJSONDanglingBit pins the id written for a bit of a wire the
// module does not hold.
func TestWriteJSONDanglingBit(t *testing.T) {
	other := rtlil.NewModule("other").AddWire("x", 2)
	m := rtlil.NewModule("m")
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), other.Bits())
	d := rtlil.NewDesign()
	d.AddModule(m)
	if out, want := writeJSON(t, d), compactRef(t, d); !bytes.Equal(out, want) {
		t.Fatalf("WriteJSON differs from compacted reference:\n%s", firstDiff(out, want))
	}
}

// TestReadJSONYosysForm reads a netlist in the shape Yosys write_json
// produces: extra keys, shared bit ids, constant bits in netnames and no
// port_id.
func TestReadJSONYosysForm(t *testing.T) {
	const src = `{
  "creator": "Yosys 0.40",
  "modules": {
    "top": {
      "attributes": {"top": "00000000000000000000000000000001", "src": "top.v:1.1-5.10"},
      "ports": {
        "b": {"direction": "input", "bits": [4, 5]},
        "a": {"direction": "input", "bits": [2, 3]},
        "y": {"direction": "output", "bits": [6, 7]}
      },
      "cells": {
        "$and$top.v:3$1": {
          "hide_name": 1,
          "type": "$and",
          "parameters": {"A_WIDTH": 2, "B_WIDTH": 2, "Y_WIDTH": 2},
          "attributes": {"src": "top.v:3.12-3.17"},
          "port_directions": {"A": "input", "B": "input", "Y": "output"},
          "connections": {"A": [2, 3], "B": [4, 5], "Y": [6, 7]}
        }
      },
      "netnames": {
        "a": {"hide_name": 0, "bits": [2, 3], "attributes": {}},
        "b": {"hide_name": 0, "bits": [4, 5], "attributes": {}},
        "y": {"hide_name": 0, "bits": [6, 7], "attributes": {}},
        "y_alias": {"hide_name": 0, "bits": [6, "1"], "attributes": {}}
      }
    }
  }
}
`
	got, err := rtlil.ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rtlil.RefReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := writeJSON(t, got), writeJSON(t, ref); !bytes.Equal(g, w) {
		t.Fatalf("readers disagree:\n%s", firstDiff(g, w))
	}
	m := got.Module("top")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Without port_id, ports are numbered in name order.
	for i, name := range []string{"a", "b", "y"} {
		if w := m.Wire(name); w.PortID != i+1 {
			t.Errorf("port %s id %d, want %d", name, w.PortID, i+1)
		}
	}
	if len(m.Conns) != 2 {
		t.Errorf("alias connections = %d, want 2 (a shared id and a constant)", len(m.Conns))
	}
}

// TestReadJSONAcceptsNulls reads null members, escaped keys and every
// JSON value kind under unknown keys, like the reference reader.
func TestReadJSONAcceptsNulls(t *testing.T) {
	const src = `{"creator":null,"extra":[1.5e-3,-0,2E+2,true,false,null,"s\u00e9\n"],
		"modules":{"m":{"ports":null,"cells":null,"connections":null,"netnames":{
			"w":{"b\u0069ts":[2,3],"attributes":{"a":{"b":[]}}}}},
		"n":{"ports":{"p":{"direction":"output","bits":null,"port_id":null}},
			"netnames":{"p":{"bits":[2]}},
			"cells":{"c":{"type":null,"parameters":null,"connections":{"A":null}}}}}}`
	got, err := rtlil.ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rtlil.RefReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := writeJSON(t, got), writeJSON(t, ref); !bytes.Equal(g, w) {
		t.Fatalf("readers disagree:\n%s", firstDiff(g, w))
	}
	if w := got.Module("m").Wire("w"); w == nil || w.Width != 2 {
		t.Fatalf("escaped key not matched: wire %+v", w)
	}
}

// TestCanonicalHashAttrs checks attributes (which the JSON netlist does
// not carry) against the reference canonical stream.
func TestCanonicalHashAttrs(t *testing.T) {
	m := escapeModule()
	m.Attrs["src"] = "top.v:1"
	m.Attrs["keep"] = "\"1\""
	for _, w := range m.Wires() {
		w.Attrs = map[string]string{"hdl": w.Name}
	}
	for _, c := range m.Cells() {
		c.Attrs = map[string]string{"z": "1", "a": "\x00"}
	}
	d := rtlil.NewDesign()
	d.AddModule(m)
	checkHash(t, d)
}

// TestReadJSONRejects lists inputs outside the accepted subset. Each
// must fail with a *JSONError, never a panic.
func TestReadJSONRejects(t *testing.T) {
	mod := func(body string) string { return `{"modules":{"m":{` + body + `}}}` }
	cases := map[string]string{
		"empty":              ``,
		"not an object":      `[]`,
		"null design":        `null`,
		"trailing data":      `{"modules":{}} {}`,
		"unterminated":       `{"modules":{"m":{`,
		"bad literal":        `{"x":tru}`,
		"bad escape":         `{"x":"\q"}`,
		"bad unicode escape": `{"x":"\u12g4"}`,
		"control char":       "{\"x\":\"a\x01\"}",
		"leading zero":       `{"x":01}`,
		"folded key":         `{"Modules":{}}`,
		"duplicate modules":  `{"modules":{},"modules":{}}`,
		"duplicate module":   `{"modules":{"m":{},"m":{}}}`,
		"null module":        `{"modules":{"m":null}}`,
		"zero-width wire":    mod(`"netnames":{"w":{"bits":[]}}`),
		"null wire bits":     mod(`"netnames":{"w":{"bits":null}}`),
		"duplicate wire":     mod(`"netnames":{"w":{"bits":[2]},"w":{"bits":[3]}}`),
		"float bit id":       mod(`"netnames":{"w":{"bits":[2.0]}}`),
		"negative bit id":    mod(`"netnames":{"w":{"bits":[-2]}}`),
		"huge bit id":        mod(`"netnames":{"w":{"bits":[2147483648]}}`),
		"bad const":          mod(`"netnames":{"w":{"bits":["q"]}}`),
		"bool bit":           mod(`"netnames":{"w":{"bits":[true]}}`),
		"bad direction":      mod(`"ports":{"w":{"direction":"inout"}},"netnames":{"w":{"bits":[2]}}`),
		"string port_id":     mod(`"ports":{"w":{"direction":"input","port_id":"1"}},"netnames":{"w":{"bits":[2]}}`),
		"port bits object":   mod(`"ports":{"w":{"direction":"input","bits":{}}},"netnames":{"w":{"bits":[2]}}`),
		"unowned id":         mod(`"cells":{"c":{"type":"$not","connections":{"A":[99]}}}`),
		"float parameter":    mod(`"cells":{"c":{"type":"$not","parameters":{"W":1.5}}}`),
		"huge parameter":     mod(`"cells":{"c":{"type":"$not","parameters":{"W":99999999999999999999}}}`),
		"string parameter":   mod(`"cells":{"c":{"type":"$not","parameters":{"W":"0001"}}}`),
		"duplicate param":    mod(`"cells":{"c":{"type":"$not","parameters":{"W":1,"W":2}}}`),
		"duplicate pin":      mod(`"cells":{"c":{"type":"$not","connections":{"A":[],"A":[]}}}`),
		"auto-name clash":    mod(`"cells":{"":{"type":"$not"},"$not$1":{"type":"$not"}}`),
		"connection triple":  mod(`"netnames":{"w":{"bits":[2]}},"connections":[[[2],[2],[2]]]`),
		"connection single":  mod(`"netnames":{"w":{"bits":[2]}},"connections":[[[2]]]`),
		"null connection":    mod(`"connections":[null]`),
		"width mismatch":     mod(`"netnames":{"w":{"bits":[2,3]}},"connections":[[[2,3],[2]]]`),
		"deep nesting":       `{"x":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `}`,
	}
	for name, src := range cases {
		_, err := rtlil.ReadJSON(strings.NewReader(src))
		var je *rtlil.JSONError
		if err == nil {
			t.Errorf("%s: accepted %q", name, src)
		} else if !errors.As(err, &je) {
			t.Errorf("%s: error %v is not a *JSONError", name, err)
		}
	}
}

// TestReadJSONHostileNumbers feeds ids, widths and positions far beyond
// the input's size: allocation must follow the input's length.
func TestReadJSONHostileNumbers(t *testing.T) {
	src := `{"modules":{"m":{
		"ports":{"a":{"direction":"input","bits":[2147483647],"port_id":9223372036854775807}},
		"netnames":{"a":{"bits":[2147483647]},"b":{"bits":[2147483646,"x"]}},
		"cells":{"c":{"type":"$not","parameters":{"A_WIDTH":9223372036854775807,"Y_WIDTH":-9223372036854775808},
			"connections":{"A":[2147483647],"Y":[2147483646]}}}}}}`
	d, err := rtlil.ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m := d.Module("m"); m.Wire("a").PortID != 1<<63-1 || m.Cell("c").Param("Y_WIDTH") != -1<<63 {
		t.Fatalf("extreme values not kept: port_id %d", m.Wire("a").PortID)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, err := rtlil.ReadJSON(strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 64<<10 {
		t.Fatalf("ReadJSON allocated %d bytes for a %d-byte netlist", per, len(src))
	}
}
