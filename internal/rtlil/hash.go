package rtlil

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"slices"
	"strconv"
	"strings"
)

// Canonical content hashing. The serving layer keys its result cache by
// netlist content, so the hash must identify the *logical* netlist, not
// one particular serialization of it: two modules that differ only in
// wire/cell insertion order, JSON object key order, map iteration order
// or connection statement order hash identically. Anything that changes
// semantics — names, widths, port directions and positions, cell types,
// parameters, connectivity — changes the hash.
//
// The hashed byte stream is line-oriented text; every name is quoted
// (Go syntax, strconv.Quote) so separators cannot be forged by crafted
// identifiers:
//
//	module "m"
//	attr "k" "v"                          (sorted by key)
//	wire "a" 4 true false 1                (sorted by name: width, in, out, port id)
//	cell "c" "$and"                        (sorted by name)
//	param "WIDTH" 4                        (sorted by key)
//	port "A" "a"[0] "a"[1] '1              (sorted by port; bits LSB first)
//	conn "y"[0] = "t"[0]                   (the set of connections, sorted lines)
//
// Constants render as '0, '1, 'x and 'z.

// CanonicalHash returns the canonical content hash of the module as a
// lowercase hex SHA-256 string.
func CanonicalHash(m *Module) string {
	c := newCanonWriter()
	c.module(m)
	return c.sum()
}

// CanonicalHashDesign returns the canonical content hash of the whole
// design: the module serializations combined in sorted name order.
func CanonicalHashDesign(d *Design) string {
	mods := slices.Clone(d.Modules())
	slices.SortFunc(mods, func(a, b *Module) int { return strings.Compare(a.Name, b.Name) })
	c := newCanonWriter()
	for _, m := range mods {
		c.module(m)
	}
	return c.sum()
}

// canonFlush is the buffered byte count at which the canonical writer
// hands its buffer to the hash.
const canonFlush = 32 << 10

// canonWriter streams the canonical serialization into SHA-256 through
// one reused buffer.
type canonWriter struct {
	h   hash.Hash
	buf []byte
	// lines holds the rendered connection lines of the current module;
	// spans indexes them for sorting.
	lines []byte
	spans [][2]int
	// keys is scratch for one map's sorted keys.
	keys []string
	// last caches the quoted name of the most recently rendered wire:
	// consecutive bits of a signal usually share their wire.
	last       *Wire
	lastQuoted []byte
}

func newCanonWriter() *canonWriter {
	return &canonWriter{h: sha256.New(), buf: make([]byte, 0, canonFlush+4<<10)}
}

func (c *canonWriter) sum() string {
	c.flush()
	return hex.EncodeToString(c.h.Sum(nil))
}

func (c *canonWriter) flush() {
	c.h.Write(c.buf)
	c.buf = c.buf[:0]
}

// line ends one line, flushing the buffer once it is large enough.
func (c *canonWriter) line() {
	c.buf = append(c.buf, '\n')
	if len(c.buf) >= canonFlush {
		c.flush()
	}
}

func (c *canonWriter) module(m *Module) {
	c.last = nil
	c.buf = append(c.buf, "module "...)
	c.buf = strconv.AppendQuote(c.buf, m.Name)
	c.line()
	c.attrs(m.Attrs)

	wires := slices.Clone(m.Wires())
	slices.SortFunc(wires, func(a, b *Wire) int { return strings.Compare(a.Name, b.Name) })
	for _, w := range wires {
		c.buf = append(c.buf, "wire "...)
		c.buf = strconv.AppendQuote(c.buf, w.Name)
		c.buf = append(c.buf, ' ')
		c.buf = strconv.AppendInt(c.buf, int64(w.Width), 10)
		c.buf = append(c.buf, ' ')
		c.buf = strconv.AppendBool(c.buf, w.PortInput)
		c.buf = append(c.buf, ' ')
		c.buf = strconv.AppendBool(c.buf, w.PortOutput)
		c.buf = append(c.buf, ' ')
		c.buf = strconv.AppendInt(c.buf, int64(w.PortID), 10)
		c.line()
		c.attrs(w.Attrs)
	}

	cells := slices.Clone(m.Cells())
	slices.SortFunc(cells, func(a, b *Cell) int { return strings.Compare(a.Name, b.Name) })
	for _, cl := range cells {
		c.buf = append(c.buf, "cell "...)
		c.buf = strconv.AppendQuote(c.buf, cl.Name)
		c.buf = append(c.buf, ' ')
		c.buf = strconv.AppendQuote(c.buf, string(cl.Type))
		c.line()
		c.keys = appendSortedKeys(c.keys[:0], cl.Params)
		for _, k := range c.keys {
			c.buf = append(c.buf, "param "...)
			c.buf = strconv.AppendQuote(c.buf, k)
			c.buf = append(c.buf, ' ')
			c.buf = strconv.AppendInt(c.buf, int64(cl.Params[k]), 10)
			c.line()
		}
		c.keys = appendSortedKeys(c.keys[:0], cl.Conn)
		for _, k := range c.keys {
			c.buf = append(c.buf, "port "...)
			c.buf = strconv.AppendQuote(c.buf, k)
			c.buf = append(c.buf, ' ')
			c.buf = c.appendSig(c.buf, cl.Conn[k])
			c.line()
		}
		c.attrs(cl.Attrs)
	}

	// Module-level connections are a set: the statement order carries no
	// semantics, so sort the rendered lines.
	c.lines, c.spans = c.lines[:0], c.spans[:0]
	for _, cn := range m.Conns {
		lo := len(c.lines)
		c.lines = append(c.lines, "conn "...)
		c.lines = c.appendSig(c.lines, cn.LHS)
		c.lines = append(c.lines, " = "...)
		c.lines = c.appendSig(c.lines, cn.RHS)
		c.lines = append(c.lines, '\n')
		c.spans = append(c.spans, [2]int{lo, len(c.lines)})
	}
	slices.SortFunc(c.spans, func(a, b [2]int) int {
		return bytes.Compare(c.lines[a[0]:a[1]], c.lines[b[0]:b[1]])
	})
	for _, sp := range c.spans {
		c.buf = append(c.buf, c.lines[sp[0]:sp[1]]...)
		if len(c.buf) >= canonFlush {
			c.flush()
		}
	}
}

func (c *canonWriter) attrs(attrs map[string]string) {
	c.keys = appendSortedKeys(c.keys[:0], attrs)
	for _, k := range c.keys {
		c.buf = append(c.buf, "attr "...)
		c.buf = strconv.AppendQuote(c.buf, k)
		c.buf = append(c.buf, ' ')
		c.buf = strconv.AppendQuote(c.buf, attrs[k])
		c.line()
	}
}

// appendSortedKeys appends the map's keys to dst in sorted order.
func appendSortedKeys[V any](dst []string, m map[string]V) []string {
	lo := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[lo:])
	return dst
}

// appendSig renders a signal as its canonical token list, LSB first:
// constants as '0/'1/'x/'z, wire bits as "name"[offset].
func (c *canonWriter) appendSig(dst []byte, s SigSpec) []byte {
	for i, b := range s {
		if i > 0 {
			dst = append(dst, ' ')
		}
		if b.IsConst() {
			dst = append(dst, '\'')
			dst = append(dst, b.Const.String()...)
			continue
		}
		if b.Wire != c.last {
			c.last = b.Wire
			c.lastQuoted = strconv.AppendQuote(c.lastQuoted[:0], b.Wire.Name)
		}
		dst = append(dst, c.lastQuoted...)
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(b.Offset), 10)
		dst = append(dst, ']')
	}
	return dst
}
