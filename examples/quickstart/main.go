// Quickstart: create distributed arrays, run a fusible operation chain,
// and inspect what Diffuse did to the task stream. It exits 1 when a value
// differs from the "want" it prints: every one is exact in IEEE
// arithmetic.
package main

import (
	"fmt"
	"os"

	"diffuse"
	"diffuse/cunum"
)

func main() {
	// A Diffuse runtime decomposing work over 8 (simulated) processors,
	// executing for real on this machine.
	rt := diffuse.New(diffuse.DefaultConfig(8))
	ctx := cunum.NewContext(rt)
	ok := true
	check := func(name string, got, want float64) {
		fmt.Printf("%-9s = %g (want %g)\n", name, got, want)
		ok = ok && got == want
	}

	// z = 2x; w = y + z; v = w^2  — the Fig. 6 fragment of the paper.
	x := ctx.Zeros(1 << 16)
	y := ctx.Ones(1 << 16)
	z := x.MulC(2.0).Keep()
	w := y.Add(z).Keep()
	v := w.Square().Keep()
	// The norm rides in the window as a future: nothing is flushed until
	// the value is demanded, and then only its dependency closure.
	nrm := w.Slice([]int{1 << 15}, []int{0}).Temp().Norm().Future()

	check("v[0]", v.Get(0), 1)
	check("||w[h:]||", nrm.Value(), 181.01933598375618)

	// Typed values: an explicit cast moves the stream to float32 — half
	// the memory traffic — and fuses into the window like any other op.
	f := v.AsType(cunum.F32).MulC(3).Keep()
	check("f32 chain", f.Get(0), 3)
	f.Free()

	st := rt.Stats()
	fmt.Printf("\nDiffuse: %d tasks submitted -> %d executed (%d fusions covering %d tasks, %d temporaries eliminated)\n",
		st.Submitted, st.Emitted, st.FusedTasks, st.FusedOriginals, st.TempsEliminated)

	// Intermediates you Keep stay readable; everything else was fused away.
	z.Free()
	w.Free()
	v.Free()
	if !ok {
		fmt.Println("quickstart: a value differs from its want")
		os.Exit(1)
	}
}
