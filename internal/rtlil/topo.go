package rtlil

import (
	"fmt"
	"slices"
)

// TopoSort returns the module's cells in a topological order of the
// combinational dependency graph: every cell appears after the cells
// driving its inputs. Sequential cells ($dff) break dependencies — their
// outputs are treated as graph sources — so any cycle reported is a true
// combinational loop. The order is a function of the module alone:
// every traversal runs in insertion order and over input ports in name
// order, never in map order.
func TopoSort(m *Module) ([]*Cell, error) {
	ix := NewIndex(m)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Cell]int, m.NumCells())
	order := make([]*Cell, 0, m.NumCells())

	var visit func(c *Cell) error
	visit = func(c *Cell) error {
		switch color[c] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("rtlil: combinational loop through cell %s", c.Name)
		}
		color[c] = gray
		if !IsSequential(c.Type) {
			var local [8]string
			ports := local[:0]
			for port := range c.Conn {
				if c.IsInputPort(port) {
					ports = append(ports, port)
				}
			}
			slices.Sort(ports)
			for _, port := range ports {
				for _, b := range ix.Map(c.Conn[port]) {
					if b.IsConst() {
						continue
					}
					d := ix.DriverCell(b)
					if d == nil || IsSequential(d.Type) {
						continue
					}
					if err := visit(d); err != nil {
						return err
					}
				}
			}
		}
		color[c] = black
		order = append(order, c)
		return nil
	}

	// Sequential cells first (their outputs are sources), then the rest
	// in insertion order for determinism.
	for _, c := range m.Cells() {
		if IsSequential(c.Type) {
			color[c] = black
			order = append(order, c)
		}
	}
	for _, c := range m.Cells() {
		if err := visit(c); err != nil {
			return nil, err
		}
	}
	return order, nil
}
