package rtlil

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSON netlist format is modeled on Yosys' write_json output: every
// wire bit gets a small integer id, constants are encoded as the strings
// "0", "1", "x", "z", and cell connections are arrays of bit tokens
// (LSB first):
//
//	{"creator": "smartly", "modules": {"<name>": {
//	  "ports":       {"<wire>": {"direction": "input"|"output", "bits": [...], "port_id": 1}},
//	  "netnames":    {"<wire>": {"bits": [2, 3, "0"]}},
//	  "cells":       {"<cell>": {"type": "$and", "parameters": {"WIDTH": 2},
//	                             "connections": {"A": [2, 3], ...}}},
//	  "connections": [[[lhs bits], [rhs bits]], ...]}}}
//
// port_id persists the 1-based port position: JSON objects carry no key
// order, so without it a read-back would renumber ports in name order
// and change the module's canonical hash (the serving layer's
// module-granular cache needs hash-stable round trips). Absent
// (Yosys-written JSON), the reader falls back to name order.
//
// The codec is hand-written and single-pass in both directions; the
// package tests keep the original encoding/json implementation as a
// differential oracle.

// ---------------------------------------------------------------- writer

// WriteJSON serializes the design to w as compact JSON: every object's
// keys in sorted order, strings escaped as encoding/json escapes them,
// no insignificant whitespace and no trailing newline.
func WriteJSON(w io.Writer, d *Design) error {
	mods := slices.Clone(d.Modules())
	slices.SortFunc(mods, func(a, b *Module) int { return strings.Compare(a.Name, b.Name) })
	jw := &jsonWriter{}
	jw.buf = append(jw.buf, `{"creator":"smartly","modules":{`...)
	for i, m := range mods {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		jw.buf = appendJSONString(jw.buf, m.Name)
		jw.buf = append(jw.buf, ':')
		jw.module(m)
	}
	jw.buf = append(jw.buf, "}}"...)
	_, err := w.Write(jw.buf)
	return err
}

// jsonWriter renders modules into one buffer.
type jsonWriter struct {
	buf []byte
	// base maps each wire of the current module to its first bit id.
	base map[*Wire]int
	keys []string
	// last caches the most recent base lookup: consecutive bits of a
	// signal usually share their wire.
	last     *Wire
	lastBase int
}

func (jw *jsonWriter) module(m *Module) {
	// Bit ids number the wires' bits in insertion order; ids 0 and 1 are
	// reserved to reduce confusion with constants.
	if jw.base == nil {
		jw.base = make(map[*Wire]int, len(m.Wires()))
	} else {
		clear(jw.base)
	}
	jw.last = nil
	next := 2
	for _, w := range m.Wires() {
		jw.base[w] = next
		next += w.Width
	}

	wires := slices.Clone(m.Wires())
	slices.SortFunc(wires, func(a, b *Wire) int { return strings.Compare(a.Name, b.Name) })

	jw.buf = append(jw.buf, `{"ports":{`...)
	first := true
	for _, w := range wires {
		if !w.IsPort() {
			continue
		}
		if !first {
			jw.buf = append(jw.buf, ',')
		}
		first = false
		jw.buf = appendJSONString(jw.buf, w.Name)
		dir := "input"
		if w.PortOutput {
			dir = "output"
		}
		jw.buf = append(jw.buf, `:{"direction":"`...)
		jw.buf = append(jw.buf, dir...)
		jw.buf = append(jw.buf, `","bits":`...)
		jw.wireBits(w)
		if w.PortID != 0 {
			jw.buf = append(jw.buf, `,"port_id":`...)
			jw.buf = strconv.AppendInt(jw.buf, int64(w.PortID), 10)
		}
		jw.buf = append(jw.buf, '}')
	}

	jw.buf = append(jw.buf, `},"netnames":{`...)
	for i, w := range wires {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		jw.buf = appendJSONString(jw.buf, w.Name)
		jw.buf = append(jw.buf, `:{"bits":`...)
		jw.wireBits(w)
		jw.buf = append(jw.buf, '}')
	}

	cells := slices.Clone(m.Cells())
	slices.SortFunc(cells, func(a, b *Cell) int { return strings.Compare(a.Name, b.Name) })
	jw.buf = append(jw.buf, `},"cells":{`...)
	for i, c := range cells {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		jw.buf = appendJSONString(jw.buf, c.Name)
		jw.buf = append(jw.buf, `:{"type":`...)
		jw.buf = appendJSONString(jw.buf, string(c.Type))
		jw.buf = append(jw.buf, `,"parameters":{`...)
		jw.keys = appendSortedKeys(jw.keys[:0], c.Params)
		for j, k := range jw.keys {
			if j > 0 {
				jw.buf = append(jw.buf, ',')
			}
			jw.buf = appendJSONString(jw.buf, k)
			jw.buf = append(jw.buf, ':')
			jw.buf = strconv.AppendInt(jw.buf, int64(c.Params[k]), 10)
		}
		jw.buf = append(jw.buf, `},"connections":{`...)
		jw.keys = appendSortedKeys(jw.keys[:0], c.Conn)
		for j, k := range jw.keys {
			if j > 0 {
				jw.buf = append(jw.buf, ',')
			}
			jw.buf = appendJSONString(jw.buf, k)
			jw.buf = append(jw.buf, ':')
			jw.sig(c.Conn[k])
		}
		jw.buf = append(jw.buf, "}}"...)
	}
	jw.buf = append(jw.buf, '}')

	if len(m.Conns) > 0 {
		jw.buf = append(jw.buf, `,"connections":[`...)
		for i, cn := range m.Conns {
			if i > 0 {
				jw.buf = append(jw.buf, ',')
			}
			jw.buf = append(jw.buf, '[')
			jw.sig(cn.LHS)
			jw.buf = append(jw.buf, ',')
			jw.sig(cn.RHS)
			jw.buf = append(jw.buf, ']')
		}
		jw.buf = append(jw.buf, ']')
	}
	jw.buf = append(jw.buf, '}')
}

// wireBits writes the wire's own bit ids.
func (jw *jsonWriter) wireBits(w *Wire) {
	jw.buf = append(jw.buf, '[')
	base := jw.base[w]
	for i := 0; i < w.Width; i++ {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		jw.buf = strconv.AppendInt(jw.buf, int64(base+i), 10)
	}
	jw.buf = append(jw.buf, ']')
}

// sig writes a signal as its bit-token array. A bit of a wire the module
// does not hold (an invalid netlist) writes id 0.
func (jw *jsonWriter) sig(s SigSpec) {
	jw.buf = append(jw.buf, '[')
	for i, b := range s {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		if b.IsConst() {
			jw.buf = appendJSONString(jw.buf, b.Const.String())
			continue
		}
		if b.Wire != jw.last {
			base, ok := jw.base[b.Wire]
			if !ok {
				base = -1
			}
			jw.last, jw.lastBase = b.Wire, base
		}
		id := 0
		if jw.lastBase >= 0 && b.Offset >= 0 && b.Offset < b.Wire.Width {
			id = jw.lastBase + b.Offset
		}
		jw.buf = strconv.AppendInt(jw.buf, int64(id), 10)
	}
	jw.buf = append(jw.buf, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string escaped exactly as
// encoding/json escapes it (HTML-safe): quote, backslash and control
// bytes escaped, <, > and & as \u003c, \u003e and \u0026, invalid
// UTF-8 replaced by \ufffd and U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ---------------------------------------------------------------- reader

// JSONError reports a netlist the reader rejects: malformed JSON, a
// value of the wrong type, or a netlist that does not hold together
// (an unowned bit id, a zero-width wire, a duplicate name). Offset is
// the byte position in the input where the problem was found.
type JSONError struct {
	Offset int
	Msg    string
}

func (e *JSONError) Error() string {
	return fmt.Sprintf("rtlil: JSON netlist at byte %d: %s", e.Offset, e.Msg)
}

// ReadJSON parses a design written by WriteJSON (or by Yosys'
// write_json, within the subset documented in docs/api.md: object keys
// spelled exactly, bit ids non-negative integers below 2^31, parameter
// values integers, no duplicate keys). Modules, wires and cells are
// added in sorted name order. Any rejected input returns a *JSONError;
// the reader allocates in proportion to the input's length, never to a
// number it contains.
func ReadJSON(r io.Reader) (*Design, error) {
	var buf bytes.Buffer
	if n, ok := r.(interface{ Len() int }); ok {
		// bytes.Reader, strings.Reader and bytes.Buffer know their
		// length: read them in one allocation.
		buf.Grow(n.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("rtlil: reading JSON netlist: %w", err)
	}
	return (&jsonReader{data: buf.Bytes()}).design()
}

// Bit tokens are stored as int32: a bit id (>= 0) or one of the
// negative constant codes below.
const (
	tok0 int32 = -1 - int32(S0)
	tok1 int32 = -1 - int32(S1)
	tokX int32 = -1 - int32(Sx)
	tokZ int32 = -1 - int32(Sz)
)

// maxBitID bounds bit ids so they fit a token.
const maxBitID = 1<<31 - 1

// maxJSONDepth bounds the nesting of skipped values, like encoding/json.
const maxJSONDepth = 10000

// span is a half-open range of the reader's token arena.
type span struct{ lo, hi int32 }

func (s span) len() int { return int(s.hi - s.lo) }

type rdWire struct {
	name string
	bits span
	at   int // input offset, for errors
}

type rdPort struct {
	name string
	dir  string
	id   int
	at   int
}

type rdCell struct {
	name, typ    string
	params, pins span // ranges of the params and pins arenas
	at           int
}

type rdParam struct {
	key string
	val int
}

type rdPin struct {
	port string
	bits span
}

// owner is the first wire bit carrying a bit id: wire is the index in
// the sorted wire list plus one (0 = unowned).
type owner struct{ wire, off int32 }

// jsonReader scans one netlist. The per-module record slices are reused
// from module to module.
type jsonReader struct {
	data []byte
	pos  int

	toks   []int32
	wires  []rdWire
	ports  []rdPort
	cells  []rdCell
	params []rdParam
	pins   []rdPin
	conns  []span // lhs, rhs pairs

	owners   []owner
	overflow map[int32]owner // ids past the owners table

	// intern deduplicates the strings str returns.
	intern map[string]string
}

func (jr *jsonReader) errorf(at int, format string, args ...any) error {
	return &JSONError{Offset: at, Msg: fmt.Sprintf(format, args...)}
}

func (jr *jsonReader) design() (*Design, error) {
	type namedModule struct {
		m  *Module
		at int
	}
	var mods []namedModule
	var seen uint8
	err := jr.object(func(key []byte, at int) error {
		switch string(key) {
		case "creator":
			if err := jr.once(&seen, 1, at, key); err != nil {
				return err
			}
			_, err := jr.stringOrNull()
			return err
		case "modules":
			if err := jr.once(&seen, 2, at, key); err != nil {
				return err
			}
			return jr.nullOrObject(func(name []byte, at int) error {
				m, err := jr.module(string(name))
				if err != nil {
					return err
				}
				mods = append(mods, namedModule{m, at})
				return nil
			})
		}
		return jr.unknown(key, at, "creator", "modules")
	})
	if err != nil {
		return nil, err
	}
	jr.ws()
	if jr.pos < len(jr.data) {
		return nil, jr.errorf(jr.pos, "unexpected data after the netlist")
	}
	slices.SortFunc(mods, func(a, b namedModule) int { return strings.Compare(a.m.Name, b.m.Name) })
	d := NewDesign()
	for i, nm := range mods {
		if i > 0 && mods[i-1].m.Name == nm.m.Name {
			return nil, jr.errorf(nm.at, "duplicate module %q", nm.m.Name)
		}
		d.AddModule(nm.m)
	}
	return d, nil
}

// once rejects a repeated key of a fixed-layout object.
func (jr *jsonReader) once(seen *uint8, bit uint8, at int, key []byte) error {
	if *seen&bit != 0 {
		return jr.errorf(at, "duplicate key %q", key)
	}
	*seen |= bit
	return nil
}

// module scans one module object and builds the module.
func (jr *jsonReader) module(name string) (*Module, error) {
	jr.toks, jr.wires, jr.ports, jr.cells = jr.toks[:0], jr.wires[:0], jr.ports[:0], jr.cells[:0]
	jr.params, jr.pins, jr.conns = jr.params[:0], jr.pins[:0], jr.conns[:0]
	var seen uint8
	err := jr.object(func(key []byte, at int) error {
		switch string(key) {
		case "ports":
			if err := jr.once(&seen, 1, at, key); err != nil {
				return err
			}
			return jr.nullOrObject(func(name []byte, at int) error { return jr.port(string(name), at) })
		case "netnames":
			if err := jr.once(&seen, 2, at, key); err != nil {
				return err
			}
			return jr.nullOrObject(func(name []byte, at int) error { return jr.netname(string(name), at) })
		case "cells":
			if err := jr.once(&seen, 4, at, key); err != nil {
				return err
			}
			return jr.nullOrObject(func(name []byte, at int) error { return jr.cell(string(name), at) })
		case "connections":
			if err := jr.once(&seen, 8, at, key); err != nil {
				return err
			}
			return jr.connections()
		}
		return jr.unknown(key, at, "ports", "netnames", "cells", "connections")
	})
	if err != nil {
		return nil, err
	}
	return jr.build(name)
}

func (jr *jsonReader) port(name string, at int) error {
	p := rdPort{name: name, at: at}
	var seen uint8
	err := jr.object(func(key []byte, at int) error {
		switch string(key) {
		case "direction":
			if err := jr.once(&seen, 1, at, key); err != nil {
				return err
			}
			var err error
			p.dir, err = jr.stringOrNull()
			return err
		case "bits":
			// The wire of the same name carries the port's bits.
			if err := jr.once(&seen, 2, at, key); err != nil {
				return err
			}
			if jr.null() {
				return nil
			}
			if jr.peek() != '[' {
				return jr.errorf(jr.pos, "port bits must be an array")
			}
			return jr.skip(0)
		case "port_id":
			if err := jr.once(&seen, 4, at, key); err != nil {
				return err
			}
			if jr.null() {
				return nil
			}
			var err error
			p.id, err = jr.integer()
			return err
		}
		return jr.unknown(key, at, "direction", "bits", "port_id")
	})
	jr.ports = append(jr.ports, p)
	return err
}

func (jr *jsonReader) netname(name string, at int) error {
	w := rdWire{name: name, at: at}
	var seen uint8
	err := jr.object(func(key []byte, at int) error {
		if string(key) != "bits" {
			return jr.unknown(key, at, "bits")
		}
		if err := jr.once(&seen, 1, at, key); err != nil {
			return err
		}
		var err error
		w.bits, err = jr.tokens()
		return err
	})
	jr.wires = append(jr.wires, w)
	return err
}

func (jr *jsonReader) cell(name string, at int) error {
	c := rdCell{name: name, at: at}
	c.params.lo, c.pins.lo = int32(len(jr.params)), int32(len(jr.pins))
	var seen uint8
	err := jr.object(func(key []byte, at int) error {
		switch string(key) {
		case "type":
			if err := jr.once(&seen, 1, at, key); err != nil {
				return err
			}
			if jr.null() {
				return nil
			}
			typ, err := jr.rawString()
			c.typ = jr.str(typ)
			return err
		case "parameters":
			if err := jr.once(&seen, 2, at, key); err != nil {
				return err
			}
			return jr.nullOrObject(func(k []byte, _ int) error {
				v, err := jr.integer()
				jr.params = append(jr.params, rdParam{key: jr.str(k), val: v})
				return err
			})
		case "connections":
			if err := jr.once(&seen, 4, at, key); err != nil {
				return err
			}
			return jr.nullOrObject(func(k []byte, _ int) error {
				bits, err := jr.tokens()
				jr.pins = append(jr.pins, rdPin{port: jr.str(k), bits: bits})
				return err
			})
		}
		return jr.unknown(key, at, "type", "parameters", "connections")
	})
	c.params.hi, c.pins.hi = int32(len(jr.params)), int32(len(jr.pins))
	jr.cells = append(jr.cells, c)
	return err
}

// connections scans the module-level [[lhs], [rhs]] pair list.
func (jr *jsonReader) connections() error {
	if jr.null() {
		return nil
	}
	return jr.array(func() error {
		at := jr.pos
		n := 0
		err := jr.array(func() error {
			if n == 2 {
				return jr.errorf(at, "connection must be a [lhs, rhs] pair")
			}
			n++
			s, err := jr.tokens()
			jr.conns = append(jr.conns, s)
			return err
		})
		if err == nil && n != 2 {
			err = jr.errorf(at, "connection must be a [lhs, rhs] pair")
		}
		return err
	})
}

// tokens scans a bit-token array (or null) into the token arena.
func (jr *jsonReader) tokens() (span, error) {
	s := span{lo: int32(len(jr.toks))}
	if jr.null() {
		s.hi = s.lo
		return s, nil
	}
	err := jr.array(func() error {
		at := jr.pos
		switch c := jr.peek(); {
		case c == '"':
			raw, err := jr.rawString()
			if err != nil {
				return err
			}
			t, ok := constToken(raw)
			if !ok {
				return jr.errorf(at, "bad bit token %q", raw)
			}
			jr.toks = append(jr.toks, t)
		case c >= '0' && c <= '9':
			id, err := jr.bitID()
			if err != nil {
				return err
			}
			jr.toks = append(jr.toks, id)
		default:
			return jr.errorf(at, "bad bit token: want a bit id or a constant string")
		}
		return nil
	})
	s.hi = int32(len(jr.toks))
	return s, err
}

// bitID scans a bit id: a JSON integer in [0, maxBitID].
func (jr *jsonReader) bitID() (int32, error) {
	d, at := jr.data, jr.pos
	i := at
	var v int64
	for i < len(d) && d[i] >= '0' && d[i] <= '9' {
		v = v*10 + int64(d[i]-'0')
		if v > maxBitID {
			return 0, jr.errorf(at, "bit id out of range")
		}
		i++
	}
	switch {
	case d[at] == '0' && i-at > 1:
		return 0, jr.errorf(at, "number with a leading zero")
	case i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E'):
		return 0, jr.errorf(at, "bit id must be an integer")
	}
	jr.pos = i
	return int32(v), nil
}

func constToken(s []byte) (int32, bool) {
	if len(s) != 1 {
		return 0, false
	}
	switch s[0] {
	case '0':
		return tok0, true
	case '1':
		return tok1, true
	case 'x':
		return tokX, true
	case 'z':
		return tokZ, true
	}
	return 0, false
}

// build assembles the scanned records into a module, in the same order
// as the original reader: wires, their aliases and cells in sorted name
// order, then the connection list in input order.
func (jr *jsonReader) build(name string) (*Module, error) {
	m := NewModule(name)
	byName := func(a, b string) int { return strings.Compare(a, b) }
	slices.SortFunc(jr.wires, func(a, b rdWire) int { return byName(a.name, b.name) })
	slices.SortFunc(jr.ports, func(a, b rdPort) int { return byName(a.name, b.name) })
	slices.SortFunc(jr.cells, func(a, b rdCell) int { return byName(a.name, b.name) })

	declared := 0
	for i, rw := range jr.wires {
		if i > 0 && jr.wires[i-1].name == rw.name {
			return nil, jr.errorf(rw.at, "duplicate wire %q", rw.name)
		}
		if rw.bits.len() == 0 {
			return nil, jr.errorf(rw.at, "wire %q has no bits", rw.name)
		}
		declared += rw.bits.len()
	}
	for i := 1; i < len(jr.ports); i++ {
		if jr.ports[i-1].name == jr.ports[i].name {
			return nil, jr.errorf(jr.ports[i].at, "duplicate port %q", jr.ports[i].name)
		}
	}

	// The owner table is indexed by bit id and sized by the declared bit
	// count (writers number bits densely from 2); larger ids go to the
	// overflow map, so no allocation scales with an id's value.
	limit := declared + 2
	if cap(jr.owners) >= limit {
		jr.owners = jr.owners[:limit]
		clear(jr.owners)
	} else {
		jr.owners = make([]owner, limit)
	}
	clear(jr.overflow)

	wires := make([]*Wire, len(jr.wires))
	var portWires []*Wire
	aliases := 0 // wire bits that are constants or carry an id another bit owns
	pi := 0
	for i, rw := range jr.wires {
		w := m.AddWire(rw.name, rw.bits.len())
		wires[i] = w
		for pi < len(jr.ports) && jr.ports[pi].name < rw.name {
			pi++
		}
		if pi < len(jr.ports) && jr.ports[pi].name == rw.name {
			p := jr.ports[pi]
			switch p.dir {
			case "input":
				w.PortInput = true
			case "output":
				w.PortOutput = true
			default:
				return nil, jr.errorf(p.at, "port %s has bad direction %q", rw.name, p.dir)
			}
			w.PortID = p.id
			portWires = append(portWires, w)
		}
		for off, t := range jr.toks[rw.bits.lo:rw.bits.hi] {
			own := owner{wire: int32(i + 1), off: int32(off)}
			switch {
			case t < 0:
				aliases++
			case int(t) < limit:
				if jr.owners[t].wire != 0 {
					aliases++
				} else {
					jr.owners[t] = own
				}
			default:
				if jr.overflow == nil {
					jr.overflow = map[int32]owner{}
				}
				if _, dup := jr.overflow[t]; dup {
					aliases++
				} else {
					jr.overflow[t] = own
				}
			}
		}
	}
	// Keep the persisted port positions only when they form a consistent
	// assignment, else renumber in (sorted) name order.
	ids := make([]int, len(portWires))
	for i, w := range portWires {
		ids[i] = w.PortID
	}
	slices.Sort(ids)
	consistent := len(ids) == 0 || ids[0] > 0
	for i := 1; i < len(ids) && consistent; i++ {
		consistent = ids[i] != ids[i-1]
	}
	if !consistent {
		for i, w := range portWires {
			w.PortID = i + 1
		}
	}

	// One signal arena for the module: two bits per alias, then every
	// cell pin and connection.
	need := 2 * aliases
	for _, p := range jr.pins {
		need += p.bits.len()
	}
	for _, s := range jr.conns {
		need += s.len()
	}
	arena := make([]SigBit, 0, need)
	m.Conns = make([]Connection, 0, aliases+len(jr.conns)/2)
	bit := func(t int32) (SigBit, bool) {
		if t < 0 {
			return ConstBit(State(-1 - t)), true
		}
		var own owner
		if int(t) < limit {
			own = jr.owners[t]
		} else {
			own = jr.overflow[t]
		}
		if own.wire == 0 {
			return SigBit{}, false
		}
		return SigBit{Wire: wires[own.wire-1], Offset: int(own.off)}, true
	}
	sig := func(s span) (SigSpec, error) {
		lo := len(arena)
		for _, t := range jr.toks[s.lo:s.hi] {
			b, ok := bit(t)
			if !ok {
				return nil, fmt.Errorf("bit id %d not owned by any wire", t)
			}
			arena = append(arena, b)
		}
		return SigSpec(arena[lo:len(arena):len(arena)]), nil
	}

	// Wires whose bit list references ids owned by other wires (or
	// constants) become connections (aliases).
	for i, rw := range jr.wires {
		w := wires[i]
		for off, t := range jr.toks[rw.bits.lo:rw.bits.hi] {
			rhs, _ := bit(t) // every id in a bit list has an owner
			if rhs.Wire == w && rhs.Offset == off {
				continue
			}
			lo := len(arena)
			arena = append(arena, SigBit{Wire: w, Offset: off}, rhs)
			m.Conns = append(m.Conns, Connection{
				LHS: SigSpec(arena[lo : lo+1 : lo+1]),
				RHS: SigSpec(arena[lo+1 : lo+2 : lo+2]),
			})
		}
	}

	for _, rc := range jr.cells {
		if rc.name != "" && m.Cell(rc.name) != nil {
			return nil, jr.errorf(rc.at, "duplicate cell %q", rc.name)
		}
		c := m.AddCell(rc.name, CellType(rc.typ))
		for _, p := range jr.params[rc.params.lo:rc.params.hi] {
			if _, dup := c.Params[p.key]; dup {
				return nil, jr.errorf(rc.at, "cell %s: duplicate parameter %q", rc.name, p.key)
			}
			c.Params[p.key] = p.val
		}
		for _, p := range jr.pins[rc.pins.lo:rc.pins.hi] {
			if _, dup := c.Conn[p.port]; dup {
				return nil, jr.errorf(rc.at, "cell %s: duplicate port %q", rc.name, p.port)
			}
			s, err := sig(p.bits)
			if err != nil {
				return nil, jr.errorf(rc.at, "cell %s port %s: %v", rc.name, p.port, err)
			}
			c.Conn[p.port] = s
		}
	}
	for i := 0; i+1 < len(jr.conns); i += 2 {
		lhs, err := sig(jr.conns[i])
		if err == nil {
			var rhs SigSpec
			if rhs, err = sig(jr.conns[i+1]); err == nil {
				if len(lhs) != len(rhs) {
					err = fmt.Errorf("width mismatch %d vs %d", len(lhs), len(rhs))
				} else {
					m.Conns = append(m.Conns, Connection{LHS: lhs, RHS: rhs})
				}
			}
		}
		if err != nil {
			return nil, &JSONError{Offset: jr.pos, Msg: fmt.Sprintf("module %s connection %d: %v", name, i/2, err)}
		}
	}
	return m, nil
}

// ------------------------------------------------------------- scanning

func (jr *jsonReader) ws() {
	for jr.pos < len(jr.data) {
		switch jr.data[jr.pos] {
		case ' ', '\t', '\n', '\r':
			jr.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (jr *jsonReader) peek() byte {
	jr.ws()
	if jr.pos < len(jr.data) {
		return jr.data[jr.pos]
	}
	return 0
}

func (jr *jsonReader) expect(c byte) error {
	if jr.peek() != c {
		return jr.unexpected(fmt.Sprintf("%q", c))
	}
	jr.pos++
	return nil
}

func (jr *jsonReader) unexpected(want string) error {
	if jr.pos >= len(jr.data) {
		return jr.errorf(jr.pos, "unexpected end of input, want %s", want)
	}
	return jr.errorf(jr.pos, "unexpected %q, want %s", jr.data[jr.pos], want)
}

// null consumes a null literal if one is next.
func (jr *jsonReader) null() bool {
	if jr.peek() == 'n' && bytes.HasPrefix(jr.data[jr.pos:], []byte("null")) {
		jr.pos += 4
		return true
	}
	return false
}

// object scans an object whose '{' is next, calling member with each
// key (valid until the next scan) and its offset; member must consume
// the value.
func (jr *jsonReader) object(member func(key []byte, at int) error) error {
	if err := jr.expect('{'); err != nil {
		return err
	}
	if jr.peek() == '}' {
		jr.pos++
		return nil
	}
	for {
		at := jr.pos
		if jr.peek() != '"' {
			return jr.unexpected("an object key")
		}
		key, err := jr.rawString()
		if err != nil {
			return err
		}
		if err := jr.expect(':'); err != nil {
			return err
		}
		jr.ws()
		if err := member(key, at); err != nil {
			return err
		}
		switch jr.peek() {
		case ',':
			jr.pos++
		case '}':
			jr.pos++
			return nil
		default:
			return jr.unexpected("',' or '}'")
		}
	}
}

// nullOrObject scans null or an object of members.
func (jr *jsonReader) nullOrObject(member func(key []byte, at int) error) error {
	if jr.null() {
		return nil
	}
	return jr.object(member)
}

// array scans the elements of an array whose '[' is next; elem must
// consume one value.
func (jr *jsonReader) array(elem func() error) error {
	if err := jr.expect('['); err != nil {
		return err
	}
	if jr.peek() == ']' {
		jr.pos++
		return nil
	}
	for {
		jr.ws()
		if err := elem(); err != nil {
			return err
		}
		switch jr.peek() {
		case ',':
			jr.pos++
		case ']':
			jr.pos++
			return nil
		default:
			return jr.unexpected("',' or ']'")
		}
	}
}

// unknown skips the value of a key the reader does not use. A key that
// differs from a known one only in case is rejected: encoding/json would
// match it case-insensitively, and silently ignoring it would read a
// different netlist than other JSON tools.
func (jr *jsonReader) unknown(key []byte, at int, known ...string) error {
	for _, k := range known {
		if bytes.EqualFold(key, []byte(k)) {
			return jr.errorf(at, "key %q must be spelled %q", key, k)
		}
	}
	return jr.skip(0)
}

// skip scans over any one JSON value, checking its syntax.
func (jr *jsonReader) skip(depth int) error {
	if depth > maxJSONDepth {
		return jr.errorf(jr.pos, "nesting deeper than %d", maxJSONDepth)
	}
	switch c := jr.peek(); {
	case c == '{':
		return jr.object(func([]byte, int) error { return jr.skip(depth + 1) })
	case c == '[':
		return jr.array(func() error { return jr.skip(depth + 1) })
	case c == '"':
		_, err := jr.rawString()
		return err
	case c == '-' || (c >= '0' && c <= '9'):
		_, _, err := jr.number()
		return err
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if bytes.HasPrefix(jr.data[jr.pos:], []byte(lit)) {
			jr.pos += len(lit)
			return nil
		}
	}
	return jr.unexpected("a value")
}

// number scans a JSON number and reports its bytes and whether it is an
// integer (no fraction, no exponent).
func (jr *jsonReader) number() ([]byte, bool, error) {
	start := jr.pos
	d := jr.data
	i := jr.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	digits := func() int {
		n := 0
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
			n++
		}
		return n
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case digits() == 0:
		jr.pos = i
		return nil, false, jr.unexpected("a digit")
	}
	integral := true
	if i < len(d) && d[i] == '.' {
		i++
		integral = false
		if digits() == 0 {
			jr.pos = i
			return nil, false, jr.unexpected("a digit")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		integral = false
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if digits() == 0 {
			jr.pos = i
			return nil, false, jr.unexpected("a digit")
		}
	}
	jr.pos = i
	return d[start:i], integral, nil
}

// integer scans a JSON number that must be an integer in int range.
func (jr *jsonReader) integer() (int, error) {
	if c := jr.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, jr.unexpected("an integer")
	}
	at := jr.pos
	raw, integral, err := jr.number()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, jr.errorf(at, "number %s is not an integer", raw)
	}
	neg := raw[0] == '-'
	if neg {
		raw = raw[1:]
	}
	// Accumulate negatively: the int64 range is one larger below zero.
	const cutoff = math.MinInt64 / 10
	var v int64
	for _, c := range raw {
		d := int64(c - '0')
		if v < cutoff || (v == cutoff && d > 8) {
			return 0, jr.errorf(at, "integer %s out of range", raw)
		}
		v = v*10 - d
	}
	if !neg {
		if v == math.MinInt64 {
			return 0, jr.errorf(at, "integer %s out of range", raw)
		}
		v = -v
	}
	if int64(int(v)) != v {
		return 0, jr.errorf(at, "integer %d out of range", v)
	}
	return int(v), nil
}

// stringOrNull scans a string (returned as a fresh Go string) or null
// (returned as "").
func (jr *jsonReader) stringOrNull() (string, error) {
	if jr.null() {
		return "", nil
	}
	raw, err := jr.rawString()
	return string(raw), err
}

// str converts scanned string bytes to a Go string, sharing repeats:
// it is used for the keys and types that recur from cell to cell (port
// names, cell types, parameter names), not for unique names.
func (jr *jsonReader) str(b []byte) string {
	if s, ok := jr.intern[string(b)]; ok {
		return s
	}
	if jr.intern == nil {
		jr.intern = map[string]string{}
	}
	s := string(b)
	jr.intern[s] = s
	return s
}

// rawString scans a string whose '"' is next and returns its decoded
// bytes. Without escapes and with valid UTF-8 (the common case) they
// alias the input; otherwise they are decoded as encoding/json decodes
// them: escapes resolved, invalid UTF-8 and unpaired surrogates
// replaced by U+FFFD.
func (jr *jsonReader) rawString() ([]byte, error) {
	if jr.peek() != '"' {
		return nil, jr.unexpected("a string")
	}
	start := jr.pos + 1
	d := jr.data
	plain := true
	for i := start; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			jr.pos = i + 1
			if plain {
				return d[start:i], nil
			}
			return jr.unquote(start, i)
		case c == '\\':
			plain = false
			i++
			if i >= len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(d) || unhex(d[i+k]) < 0 {
						return nil, jr.errorf(i, "bad \\u escape in string")
					}
				}
				i += 4
			default:
				return nil, jr.errorf(i, "bad escape in string")
			}
		case c < ' ':
			return nil, jr.errorf(i, "control character in string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, jr.errorf(len(d), "unterminated string")
}

// unquote decodes the (syntax-checked) string body d[lo:hi].
func (jr *jsonReader) unquote(lo, hi int) ([]byte, error) {
	s := jr.data[lo:hi]
	if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return s, nil
	}
	out := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			r++
			switch s[r] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := getu4(s[r-1:])
				r += 5
				if utf16.IsSurrogate(rr) {
					if rr1 := getu4(s[r:]); rr1 >= 0 {
						if dec := utf16.DecodeRune(rr, rr1); dec != utf8.RuneError {
							r += 6
							out = utf8.AppendRune(out, dec)
							continue
						}
					}
					rr = utf8.RuneError
				}
				out = utf8.AppendRune(out, rr)
				continue
			default: // '"', '\\', '/'
				out = append(out, s[r])
			}
			r++
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out, nil
}

// getu4 decodes \uXXXX at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r*16 + rune(h)
	}
	return r
}

func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}
