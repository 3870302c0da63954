package gpusim_test

import (
	"testing"

	"barracuda/internal/bench"
	"barracuda/internal/gpusim"
	"barracuda/internal/instrument"
	"barracuda/internal/ptx"
)

// BenchmarkCompile lowers every kernel of the 26 benchmark programs,
// instrumented by default and with the static pruner, as a module's
// first launch does: parsing, instrumenting and loading happen once,
// outside the timer.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct {
		name string
		opts instrument.Options
	}{
		{"default", instrument.Options{}},
		{"static_prune", instrument.Options{StaticPrune: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var mods []*gpusim.Module
			for _, bm := range bench.All() {
				m, err := ptx.Parse(bm.PTX())
				if err != nil {
					b.Fatal(err)
				}
				res, err := instrument.Instrument(m, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				mod, err := gpusim.NewDevice(0).LoadModule(res.Module)
				if err != nil {
					b.Fatal(err)
				}
				mods = append(mods, mod)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, mod := range mods {
					for _, k := range mod.Src.Kernels {
						if err := gpusim.Compile(mod, k.Name); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
