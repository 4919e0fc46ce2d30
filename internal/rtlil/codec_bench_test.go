package rtlil_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/genbench"
	"repro/internal/rtlil"
)

// serveDesigns are the Table II cases a warm smartlyd cache hit is
// usually measured on, at the scale the serving benchmarks use.
var serveDesigns = []string{"ac97_ctrl", "ethernet", "usb_funct", "riscv"}

func benchDesigns(b *testing.B) []*rtlil.Design {
	b.Helper()
	var out []*rtlil.Design
	for _, r := range genbench.Recipes() {
		for _, name := range serveDesigns {
			if r.Name == name {
				d := rtlil.NewDesign()
				d.AddModule(genbench.Generate(r, 0.25))
				out = append(out, d)
			}
		}
	}
	return out
}

func encodeAll(b *testing.B, ds []*rtlil.Design) [][]byte {
	b.Helper()
	out := make([][]byte, len(ds))
	for i, d := range ds {
		var buf bytes.Buffer
		if err := rtlil.WriteJSON(&buf, d); err != nil {
			b.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

func BenchmarkReadJSON(b *testing.B) {
	raws := encodeAll(b, benchDesigns(b))
	n := 0
	for _, r := range raws {
		n += len(r)
	}
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range raws {
			if _, err := rtlil.ReadJSON(bytes.NewReader(r)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	ds := benchDesigns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			if err := rtlil.WriteJSON(io.Discard, d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCanonicalHashDesign(b *testing.B) {
	ds := benchDesigns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			rtlil.CanonicalHashDesign(d)
		}
	}
}
