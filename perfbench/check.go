package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cec"
	"repro/internal/rtlil"
	"repro/internal/sim"
)

// simRounds is the number of 64-vector rounds each simulation check
// evaluates. Full CEC of a Table II case takes 7-38 s, so the timed loop
// checks combinational outputs on seeded random vectors instead.
const simRounds = 4

// simOracle holds the reference outputs of one unoptimized module on a
// fixed set of seeded random vectors, keyed by port name.
type simOracle struct {
	ref  *rtlil.Module
	seq  bool
	ins  []map[string][]uint64 // per round: input port -> lanes per bit
	outs []map[string][]uint64 // per round: output port -> lanes per bit
}

// newSimOracle simulates ref on simRounds rounds of vectors drawn from
// seed. Sequential modules are checked by k-induction instead, so they
// keep only the reference.
func newSimOracle(ref *rtlil.Module, seed int64) (*simOracle, error) {
	o := &simOracle{ref: ref, seq: ref.StateBits() > 0}
	if o.seq {
		return o, nil
	}
	p, err := sim.NewParallel(ref)
	if err != nil {
		return nil, fmt.Errorf("simulating reference %s: %w", ref.Name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < simRounds; r++ {
		ins := map[string][]uint64{}
		vec := map[rtlil.SigBit]uint64{}
		for _, w := range ref.Inputs() {
			lanes := make([]uint64, w.Width)
			for i := range lanes {
				lanes[i] = rng.Uint64()
				vec[w.Bit(i)] = lanes[i]
			}
			ins[w.Name] = lanes
		}
		vals := p.Run(vec)
		outs := map[string][]uint64{}
		for _, w := range ref.Outputs() {
			outs[w.Name] = p.Sig(vals, w.Bits())
		}
		o.ins = append(o.ins, ins)
		o.outs = append(o.outs, outs)
	}
	return o, nil
}

// check validates got and compares it with the reference: on the
// oracle's vectors for combinational modules, by cec.CheckSequential
// (k-induction from the zero reset state) for sequential ones.
func (o *simOracle) check(got *rtlil.Module) error {
	if err := got.Validate(); err != nil {
		return fmt.Errorf("optimized %s invalid: %w", got.Name, err)
	}
	if o.seq {
		if err := cec.CheckSequential(o.ref, got, nil); err != nil {
			return fmt.Errorf("optimized %s: %w", got.Name, err)
		}
		return nil
	}
	p, err := sim.NewParallel(got)
	if err != nil {
		return fmt.Errorf("simulating optimized %s: %w", got.Name, err)
	}
	for r := range o.ins {
		vec := map[rtlil.SigBit]uint64{}
		for name, lanes := range o.ins[r] {
			w := got.Wire(name)
			if w == nil || !w.PortInput || w.Width != len(lanes) {
				return fmt.Errorf("optimized %s: input port %s changed", got.Name, name)
			}
			for i, v := range lanes {
				vec[w.Bit(i)] = v
			}
		}
		vals := p.Run(vec)
		for name, want := range o.outs[r] {
			w := got.Wire(name)
			if w == nil || !w.PortOutput || w.Width != len(want) {
				return fmt.Errorf("optimized %s: output port %s changed", got.Name, name)
			}
			for i, v := range p.Sig(vals, w.Bits()) {
				if v != want[i] {
					return fmt.Errorf("optimized %s: output %s[%d] differs in simulation round %d", got.Name, name, i, r)
				}
			}
		}
	}
	return nil
}
