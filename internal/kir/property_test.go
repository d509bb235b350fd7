package kir

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestOptimizePreservesSemantics generates random multi-loop element-wise
// kernels with random temporaries and checks that the full pass pipeline
// (loop fusion + scalarization + dead-store elimination) leaves the
// observable outputs bit-identical to the unoptimized kernel.
func TestOptimizePreservesSemantics(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 6
		nParams := 4 + rng.Intn(5)
		k := NewKernel("rand", nParams)

		// Random expression over parameters written so far (or constants).
		written := map[int]bool{0: true, 1: true} // params 0,1 are inputs
		var randExpr func(depth int) *Expr
		randExpr = func(depth int) *Expr {
			if depth <= 0 || rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 {
					// Load some written param.
					var cands []int
					for p := range written {
						cands = append(cands, p)
					}
					return Load(cands[rng.Intn(len(cands))])
				}
				return Const(float64(rng.Intn(7)) - 3)
			}
			ops := []Op{OpAdd, OpSub, OpMul, OpMax, OpMin}
			return Binary(ops[rng.Intn(len(ops))], randExpr(depth-1), randExpr(depth-1))
		}

		nLoops := 1 + rng.Intn(4)
		for l := 0; l < nLoops; l++ {
			var stmts []Stmt
			for s := 0; s < 1+rng.Intn(3); s++ {
				dst := 2 + rng.Intn(nParams-2)
				stmts = append(stmts, Stmt{Kind: KStore, Param: dst, E: randExpr(3)})
				written[dst] = true
			}
			k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{n}, ExtRef: 0, Stmts: stmts})
		}
		// Mark a random subset of non-input params that the caller will
		// not observe as temporaries.
		temp := make([]bool, nParams)
		for p := 2; p < nParams; p++ {
			temp[p] = rng.Intn(3) == 0
		}

		// exec runs kk, whose parameter i is k's parameter kept[i].
		exec := func(kk *Kernel, kept []int) [][]float64 {
			bufs := make([][]float64, nParams)
			bind := make([]Binding, len(kept))
			for i, p := range kept {
				bufs[p] = make([]float64, n)
				for i := range bufs[p] {
					// Deterministic init so both runs start identically.
					bufs[p][i] = math.Round(float64((p*31+i*7)%13)) - 6
				}
				bind[i] = Binding{Acc: Accessor{Data: BufF64(bufs[p]), Strides: []int{1}}, Ext: []int{n}}
			}
			Compile(kk).Execute(&PointArgs{Bind: bind})
			return bufs
		}

		all := make([]int, nParams)
		for p := range all {
			all[p] = p
		}
		got := exec(k, all)
		want := exec(optimize(k, temp, nil))

		for p := 0; p < nParams; p++ {
			if temp[p] {
				continue
			}
			for i := 0; i < n; i++ {
				if got[p][i] != want[p][i] {
					t.Logf("seed %d: param %d elem %d: %g vs %g", seed, p, i, got[p][i], want[p][i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeIdempotent: running the pipeline twice changes nothing.
func TestOptimizeIdempotent(t *testing.T) {
	var c Composer
	once, _ := c.Compose("f", 5, []*Kernel{addKernel(), addKernel()}, [][]int{{0, 1, 2}, {2, 3, 4}},
		[]bool{2: true, 4: false}, nil, true)
	twice, _ := optimize(once, nil, nil)
	if len(once.Loops) != len(twice.Loops) {
		t.Fatal("composition must be idempotent in loop structure")
	}
	for i := range once.Loops {
		if len(once.Loops[i].Stmts) != len(twice.Loops[i].Stmts) {
			t.Fatal("composition must be idempotent in statement counts")
		}
	}
}
