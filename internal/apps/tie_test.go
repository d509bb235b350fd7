package apps

import (
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
)

// TestSimAndRealShareTheFrontEnd: ModeSim and ModeReal differ only behind
// legion's Backend seam — the fusion layer, its memo and its compiles are
// the same code on the same stream — so every fusion count agrees between
// them for the same program at the same size.
func TestSimAndRealShareTheFrontEnd(t *testing.T) {
	cases := []struct {
		name  string
		build func(ctx *cunum.Context) func(n int)
	}{
		{"Black-Scholes", func(ctx *cunum.Context) func(int) { return NewBlackScholes(ctx, 256).Iterate }},
		{"SWE", func(ctx *cunum.Context) func(int) { return NewSWE(ctx, 32, 32, false).Iterate }},
		// In ModeSim BuildPoisson2D declares the matrix synthetically
		// instead of assembling it (poisson.go). The counts agree anyway:
		// the CSR structure rides in the SpMV task's payload, which the
		// fusion layer only carries along, and neither form submits a task.
		{"CG", func(ctx *cunum.Context) func(int) {
			A := BuildPoisson2D(ctx, 16)
			return NewCG(ctx, A, ctx.Ones(A.Rows()), false).Iterate
		}},
	}
	for _, app := range cases {
		t.Run(app.name, func(t *testing.T) {
			run := func(mode legion.Mode) core.Stats {
				cfg := core.DefaultConfig(4)
				cfg.Mode = mode
				ctx := cunum.NewContext(core.New(cfg))
				app.build(ctx)(6)
				ctx.Flush()
				return ctx.Runtime().Stats()
			}
			onReal, onSim := run(legion.ModeReal), run(legion.ModeSim)
			counts := []struct {
				name          string
				onReal, onSim int64
			}{
				{"Submitted", onReal.Submitted, onSim.Submitted},
				{"Emitted", onReal.Emitted, onSim.Emitted},
				{"FusedTasks", onReal.FusedTasks, onSim.FusedTasks},
				{"FusedOriginals", onReal.FusedOriginals, onSim.FusedOriginals},
				{"TempsEliminated", onReal.TempsEliminated, onSim.TempsEliminated},
				{"KernelsCompiled", onReal.KernelsCompiled, onSim.KernelsCompiled},
			}
			for _, c := range counts {
				if c.onReal != c.onSim {
					t.Errorf("%s: ModeReal %d, ModeSim %d", c.name, c.onReal, c.onSim)
				}
			}
			if onReal.FusedTasks == 0 {
				t.Errorf("nothing fused: %+v", onReal)
			}
		})
	}
}
