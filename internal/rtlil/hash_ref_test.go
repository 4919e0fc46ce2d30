package rtlil

import (
	"bytes"
	"fmt"
	"io"
	"sort"
)

// The reference canonical serialization: the original fmt-based writer,
// kept as the differential oracle for the streaming hasher in hash.go.
// CanonicalHash must equal the SHA-256 of RefCanonicalBytes.

// RefCanonicalBytes returns the reference canonical byte stream of the
// modules, in the order given.
func RefCanonicalBytes(mods ...*Module) []byte {
	var buf bytes.Buffer
	for _, m := range mods {
		refWriteModule(&buf, m)
	}
	return buf.Bytes()
}

func refWriteModule(w io.Writer, m *Module) {
	fmt.Fprintf(w, "module %q\n", m.Name)
	refWriteAttrs(w, m.Attrs)

	wires := append([]*Wire(nil), m.Wires()...)
	sort.Slice(wires, func(i, j int) bool { return wires[i].Name < wires[j].Name })
	for _, wi := range wires {
		fmt.Fprintf(w, "wire %q %d %v %v %d\n",
			wi.Name, wi.Width, wi.PortInput, wi.PortOutput, wi.PortID)
		refWriteAttrs(w, wi.Attrs)
	}

	cells := append([]*Cell(nil), m.Cells()...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Name < cells[j].Name })
	for _, c := range cells {
		fmt.Fprintf(w, "cell %q %q\n", c.Name, c.Type)
		for _, k := range refSortedKeys(c.Params) {
			fmt.Fprintf(w, "param %q %d\n", k, c.Params[k])
		}
		for _, k := range refSortedKeys(c.Conn) {
			fmt.Fprintf(w, "port %q %s\n", k, refSigString(c.Conn[k]))
		}
		refWriteAttrs(w, c.Attrs)
	}

	lines := make([]string, len(m.Conns))
	for i, cn := range m.Conns {
		lines[i] = fmt.Sprintf("conn %s = %s\n", refSigString(cn.LHS), refSigString(cn.RHS))
	}
	sort.Strings(lines)
	for _, l := range lines {
		io.WriteString(w, l)
	}
}

func refWriteAttrs(w io.Writer, attrs map[string]string) {
	for _, k := range refSortedKeys(attrs) {
		fmt.Fprintf(w, "attr %q %q\n", k, attrs[k])
	}
}

func refSortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func refSigString(s SigSpec) string {
	buf := make([]byte, 0, 16*len(s))
	for i, b := range s {
		if i > 0 {
			buf = append(buf, ' ')
		}
		if b.IsConst() {
			buf = append(buf, '\'')
			buf = append(buf, b.Const.String()...)
		} else {
			buf = append(buf, fmt.Sprintf("%q[%d]", b.Wire.Name, b.Offset)...)
		}
	}
	return string(buf)
}
