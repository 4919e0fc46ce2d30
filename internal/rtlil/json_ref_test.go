package rtlil

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The reference netlist codec: the original encoding/json reader and
// indented writer, kept as differential oracles for the single-pass
// codec in json.go. WriteJSON must equal json.Compact of RefWriteJSON,
// and ReadJSON must build the same design as RefReadJSON wherever both
// accept the input.

type refJSONDesign struct {
	Creator string                    `json:"creator"`
	Modules map[string]*refJSONModule `json:"modules"`
}

type refJSONModule struct {
	Ports       map[string]*refJSONPort `json:"ports"`
	Wires       map[string]*refJSONWire `json:"netnames"`
	Cells       map[string]*refJSONCell `json:"cells"`
	Connections [][2][]any              `json:"connections,omitempty"`
}

type refJSONPort struct {
	Direction string `json:"direction"`
	Bits      []any  `json:"bits"`
	PortID    int    `json:"port_id,omitempty"`
}

type refJSONWire struct {
	Bits []any `json:"bits"`
}

type refJSONCell struct {
	Type        string           `json:"type"`
	Parameters  map[string]int   `json:"parameters"`
	Connections map[string][]any `json:"connections"`
}

// RefWriteJSON is the reference writer: indented encoding/json output.
func RefWriteJSON(w io.Writer, d *Design) error {
	jd := refJSONDesign{Creator: "smartly", Modules: map[string]*refJSONModule{}}
	for _, m := range d.Modules() {
		jd.Modules[m.Name] = refModuleToJSON(m)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jd)
}

func refModuleToJSON(m *Module) *refJSONModule {
	ids := map[SigBit]int{}
	next := 2
	for _, w := range m.Wires() {
		for i := 0; i < w.Width; i++ {
			ids[SigBit{Wire: w, Offset: i}] = next
			next++
		}
	}
	sig := func(s SigSpec) []any {
		out := make([]any, len(s))
		for i, b := range s {
			if b.IsConst() {
				out[i] = b.Const.String()
			} else {
				out[i] = ids[b]
			}
		}
		return out
	}
	jm := &refJSONModule{
		Ports: map[string]*refJSONPort{},
		Wires: map[string]*refJSONWire{},
		Cells: map[string]*refJSONCell{},
	}
	for _, w := range m.Wires() {
		jm.Wires[w.Name] = &refJSONWire{Bits: sig(w.Bits())}
		if w.IsPort() {
			dir := "input"
			if w.PortOutput {
				dir = "output"
			}
			jm.Ports[w.Name] = &refJSONPort{Direction: dir, Bits: sig(w.Bits()), PortID: w.PortID}
		}
	}
	for _, c := range m.Cells() {
		jc := &refJSONCell{
			Type:        string(c.Type),
			Parameters:  map[string]int{},
			Connections: map[string][]any{},
		}
		for k, v := range c.Params {
			jc.Parameters[k] = v
		}
		for k, v := range c.Conn {
			jc.Connections[k] = sig(v)
		}
		jm.Cells[c.Name] = jc
	}
	for _, cn := range m.Conns {
		jm.Connections = append(jm.Connections, [2][]any{sig(cn.LHS), sig(cn.RHS)})
	}
	return jm
}

// RefReadJSON is the reference reader: encoding/json into boxed
// tokens. Like the original it panics on some malformed input (zero
// widths, width-mismatched connections, null objects); callers that
// feed it untrusted bytes recover.
func RefReadJSON(r io.Reader) (*Design, error) {
	var jd refJSONDesign
	if err := json.NewDecoder(r).Decode(&jd); err != nil {
		return nil, fmt.Errorf("rtlil: decoding JSON netlist: %w", err)
	}
	d := NewDesign()
	names := make([]string, 0, len(jd.Modules))
	for name := range jd.Modules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, err := refModuleFromJSON(name, jd.Modules[name])
		if err != nil {
			return nil, err
		}
		d.AddModule(m)
	}
	return d, nil
}

func refModuleFromJSON(name string, jm *refJSONModule) (*Module, error) {
	m := NewModule(name)
	bitOwner := map[int]SigBit{}

	wireNames := make([]string, 0, len(jm.Wires))
	for wn := range jm.Wires {
		wireNames = append(wireNames, wn)
	}
	sort.Strings(wireNames)
	var portWires []*Wire
	for _, wn := range wireNames {
		jw := jm.Wires[wn]
		w := m.AddWire(wn, len(jw.Bits))
		if p, ok := jm.Ports[wn]; ok {
			switch p.Direction {
			case "input":
				w.PortInput = true
			case "output":
				w.PortOutput = true
			default:
				return nil, fmt.Errorf("rtlil: port %s has bad direction %q", wn, p.Direction)
			}
			w.PortID = p.PortID
			portWires = append(portWires, w)
		}
		for i, t := range jw.Bits {
			if id, ok := refTokenID(t); ok {
				if _, dup := bitOwner[id]; !dup {
					bitOwner[id] = SigBit{Wire: w, Offset: i}
				}
			}
		}
	}
	seen := map[int]bool{}
	consistent := true
	for _, w := range portWires {
		if w.PortID <= 0 || seen[w.PortID] {
			consistent = false
			break
		}
		seen[w.PortID] = true
	}
	if !consistent {
		for _, w := range portWires {
			w.PortID = 0
		}
		for _, w := range portWires {
			w.PortID = m.nextPortID()
		}
	}

	parseSig := func(tokens []any) (SigSpec, error) {
		s := make(SigSpec, len(tokens))
		for i, t := range tokens {
			switch v := t.(type) {
			case string:
				switch v {
				case "0":
					s[i] = ConstBit(S0)
				case "1":
					s[i] = ConstBit(S1)
				case "x":
					s[i] = ConstBit(Sx)
				case "z":
					s[i] = ConstBit(Sz)
				default:
					return nil, fmt.Errorf("rtlil: bad bit token %q", v)
				}
			case float64:
				b, ok := bitOwner[int(v)]
				if !ok {
					return nil, fmt.Errorf("rtlil: bit id %d not owned by any wire", int(v))
				}
				s[i] = b
			default:
				return nil, fmt.Errorf("rtlil: bad bit token type %T", t)
			}
		}
		return s, nil
	}

	for _, wn := range wireNames {
		jw := jm.Wires[wn]
		w := m.Wire(wn)
		for i, t := range jw.Bits {
			id, ok := refTokenID(t)
			var rhs SigBit
			if ok {
				owner := bitOwner[id]
				if owner.Wire == w && owner.Offset == i {
					continue
				}
				rhs = owner
			} else {
				s, err := parseSig([]any{t})
				if err != nil {
					return nil, err
				}
				rhs = s[0]
			}
			m.Connect(SigSpec{w.Bit(i)}, SigSpec{rhs})
		}
	}

	cellNames := make([]string, 0, len(jm.Cells))
	for cn := range jm.Cells {
		cellNames = append(cellNames, cn)
	}
	sort.Strings(cellNames)
	for _, cn := range cellNames {
		jc := jm.Cells[cn]
		c := m.AddCell(cn, CellType(jc.Type))
		for k, v := range jc.Parameters {
			c.Params[k] = v
		}
		for k, v := range jc.Connections {
			s, err := parseSig(v)
			if err != nil {
				return nil, fmt.Errorf("rtlil: cell %s port %s: %w", cn, k, err)
			}
			c.Conn[k] = s
		}
	}
	for i, pair := range jm.Connections {
		lhs, err := parseSig(pair[0])
		if err != nil {
			return nil, fmt.Errorf("rtlil: connection %d: %w", i, err)
		}
		rhs, err := parseSig(pair[1])
		if err != nil {
			return nil, fmt.Errorf("rtlil: connection %d: %w", i, err)
		}
		m.Connect(lhs, rhs)
	}
	return m, nil
}

func refTokenID(t any) (int, bool) {
	if f, ok := t.(float64); ok {
		return int(f), true
	}
	return 0, false
}
