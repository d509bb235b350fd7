package kir

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// csrOf builds CSR arrays from row lengths, column k (in nonzero order)
// drawn as (7k+3) mod cols.
func csrOf(lens []int, cols int) (rowPtr, col []int32) {
	rowPtr = []int32{0}
	for _, n := range lens {
		for range n {
			col = append(col, int32((len(col)*7+3)%cols))
		}
		rowPtr = append(rowPtr, int32(len(col)))
	}
	return rowPtr, col
}

// TestSpMVStreamingPaths runs the SpMV's uniform-dtype paths (the f64 one
// four rows at a time, in spmvUnit) and the mixed-dtype path, at unit and
// non-unit strides and with the lanes on and off, against a plain CSR
// loop over the arrays the layout was built from: one serial sum per row,
// in nonzero order, widened to float64 and rounded once at the store. The
// matrices have 4k to 4k+3 rows, so every remainder of a last partial
// chunk; chunks whose rows differ in length, with an empty row inside a
// chunk and empty rows at both ends; and one-entry rows, the shape of an
// injection. Values and x include ±0, ±Inf and NaN. NaNs match as NaNs:
// the payload of NaN-op-NaN follows the operand order the compiler picks,
// which differs between the reference and the kernel.
func TestSpMVStreamingPaths(t *testing.T) {
	const cols = 12
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1.5, -3.25, 1e300, 7}
	shapes := [][]int{
		{0, 3, 2, 0, 4, 1, 3, 0},
		{3, 1, 4, 2, 5, 0, 5, 5, 2},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{2, 2, 2, 2, 3, 3, 1, 3, 0, 4, 2},
		{6, 6, 6, 6, 6, 2, 6, 6, 0, 0, 0, 1},
	}
	for _, on := range []bool{true, false} {
		restore, _ := SetLanes(on)
		for _, lens := range shapes {
			rowPtr, col := csrOf(lens, cols)
			rows := len(lens)
			for _, vdt := range []DType{F64, F32} {
				for _, xdt := range []DType{F64, F32} {
					vals := AllocBuffer(vdt, len(col))
					for k := range col {
						vals.Set(k, special[(k*5)%len(special)])
					}
					csr := NewCSRLocal(rowPtr, col, vals)
					for _, st := range [][2]int{{1, 1}, {2, 1}, {1, 3}, {2, 3}} {
						xstr, ystr := st[0], st[1]
						const xbase, ybase = 3, 2
						x := AllocBuffer(xdt, xbase+cols*xstr+1)
						for i := 0; i < x.Len(); i++ {
							x.Set(i, special[(i*7+2)%len(special)])
						}
						y := AllocBuffer(xdt, ybase+rows*ystr+1)
						y.Fill(-42)
						want := y.Clone()
						for i := 0; i < rows; i++ {
							sum := 0.0
							for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
								sum += vals.Get(int(k)) * x.Get(xbase+int(col[k])*xstr)
							}
							want.Set(ybase+i*ystr, sum)
						}
						k := NewKernel("spmv", 2)
						k.SetDType(0, xdt)
						k.SetDType(1, xdt)
						k.AddLoop(&Loop{Kind: LoopSpMV, X: 0, Y: 1, ExtRef: 1, Ext: []int{rows}, PayloadKey: 1})
						Compile(k).Execute(&PointArgs{
							Bind: []Binding{
								{Acc: Accessor{Data: x, Base: xbase, Strides: []int{xstr}}, Ext: []int{cols}},
								{Acc: Accessor{Data: y, Base: ybase, Strides: []int{ystr}}, Ext: []int{rows}},
							},
							Payloads: map[int]*CSRLocal{1: csr},
						})
						for i := 0; i < y.Len(); i++ {
							g, w := y.Get(i), want.Get(i)
							if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
								restore()
								t.Fatalf("lanes %t rows %v vals %s x %s strides x=%d y=%d: y[%d] = %g, want %g",
									on, lens, vdt, xdt, xstr, ystr, i, g, w)
							}
						}
					}
				}
			}
		}
		restore()
	}

	// A point task with no local rows writes nothing.
	k := NewKernel("spmv", 2)
	k.AddLoop(&Loop{Kind: LoopSpMV, X: 0, Y: 1, ExtRef: 1, Ext: []int{0}, PayloadKey: 1})
	Compile(k).Execute(&PointArgs{
		Bind:     []Binding{flat([]float64{1}, 1), flat([]float64{}, 0)},
		Payloads: map[int]*CSRLocal{1: NewCSRLocal([]int32{0}, nil, BufF64(nil))},
	})
}

// TestSpMVPoissonBlocks runs the 144² five-point Poisson matrix split as
// a sparse matrix splits it over 8 points, each point's rows a layout of
// its own built straight from the whole matrix's arrays, with the lanes
// on and off, against a plain CSR loop over the original triplets. x
// mixes normal values with ±Inf, NaNs, ±0, subnormals and ±1e308, whose
// products overflow; NaNs match as NaNs.
func TestSpMVPoissonBlocks(t *testing.T) {
	const n, points = 144, 8
	N := n * n
	rowPtr, col, val := poisson2D(n)
	rng := rand.New(rand.NewSource(144))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -0x1p-1030, 1e308, -1e308}
	x := make([]float64, N)
	for i := range x {
		if x[i] = rng.NormFloat64(); rng.Intn(50) == 0 {
			x[i] = special[rng.Intn(len(special))]
		}
	}
	tile := (N + points - 1) / points
	k := NewKernel("spmv", 2)
	k.AddLoop(&Loop{Kind: LoopSpMV, X: 0, Y: 1, ExtRef: 1, Ext: []int{tile}, PayloadKey: 1})
	comp := Compile(k)
	for _, on := range []bool{true, false} {
		restore, _ := SetLanes(on)
		for p := 0; p < points; p++ {
			lo, hi := min(p*tile, N), min((p+1)*tile, N)
			y := make([]float64, hi-lo)
			comp.Execute(&PointArgs{
				Bind:     []Binding{flat(x, N), flat(y, hi-lo)},
				Payloads: map[int]*CSRLocal{1: NewCSRLocal(rowPtr[lo:hi+1], col, BufF64(val))},
			})
			for i := lo; i < hi; i++ {
				sum := 0.0
				for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
					sum += val[k] * x[col[k]]
				}
				if g := y[i-lo]; math.Float64bits(g) != math.Float64bits(sum) && !(math.IsNaN(g) && math.IsNaN(sum)) {
					restore()
					t.Fatalf("lanes %t point %d row %d: %g, the CSR loop gives %g", on, p, i, g, sum)
				}
			}
		}
		restore()
	}
}

// poisson2D returns the CSR arrays of the five-point Laplacian on an n×n
// grid, as apps.BuildPoisson2D assembles it.
func poisson2D(n int) (rowPtr, col []int, val []float64) {
	rowPtr = []int{0}
	add := func(c int, v float64) {
		col = append(col, c)
		val = append(val, v)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := i*n + j
			if i > 0 {
				add(r-n, -1)
			}
			if j > 0 {
				add(r-1, -1)
			}
			add(r, 4)
			if j < n-1 {
				add(r+1, -1)
			}
			if i < n-1 {
				add(r+n, -1)
			}
			rowPtr = append(rowPtr, len(col))
		}
	}
	return rowPtr, col, val
}

// BenchmarkSpMVPoisson times the f64 SpMV over the 144² Poisson matrix's
// 8 point blocks, one block after another on one core, with the lanes on
// and off.
func BenchmarkSpMVPoisson(b *testing.B) {
	const n, points = 144, 8
	N := n * n
	rowPtr, col, val := poisson2D(n)
	tile := (N + points - 1) / points
	blocks := make([]*CSRLocal, points)
	for p := range blocks {
		blocks[p] = NewCSRLocal(rowPtr[p*tile:min((p+1)*tile, N)+1], col, BufF64(val))
	}
	x, y := make([]float64, N), make([]float64, tile)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("lanes=%t", on), func(b *testing.B) {
			restore, _ := SetLanes(on)
			defer restore()
			for b.Loop() {
				for _, c := range blocks {
					spmvUnit(c, x, y[:c.Rows()])
				}
			}
		})
	}
}

// TestSpMVBindingChecks: an x binding too short for the largest column,
// or a y binding too short for the rows, panics with the binding named,
// as Go's index check did, with the lanes on and off, before anything is
// read or written.
func TestSpMVBindingChecks(t *testing.T) {
	csr := NewCSRLocal([]int32{0, 2, 3, 5, 6, 7}, []int32{0, 9, 1, 0, 3, 4, 2}, BufF64([]float64{1, 2, 3, 4, 5, 6, 7}))
	k := NewKernel("spmv", 2)
	k.AddLoop(&Loop{Kind: LoopSpMV, X: 0, Y: 1, ExtRef: 1, Ext: []int{5}, PayloadKey: 1})
	comp := Compile(k)
	for _, on := range []bool{true, false} {
		for _, c := range []struct {
			name  string
			x, y  int
			cause string
		}{{"short x", 9, 5, "x binding holds 9 elements, column 9"}, {"short y", 10, 4, "y binding holds 4 elements, row 4"}} {
			t.Run(fmt.Sprintf("lanes=%t/%s", on, c.name), func(t *testing.T) {
				restore, _ := SetLanes(on)
				defer restore()
				y := make([]float64, c.y)
				for i := range y {
					y[i] = -1
				}
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.cause) {
						t.Fatalf("panic %q, want one naming %q", msg, c.cause)
					}
					for i, v := range y {
						if v != -1 {
							t.Fatalf("y[%d] = %g written before the check", i, v)
						}
					}
				}()
				comp.Execute(&PointArgs{
					Bind:     []Binding{flat(make([]float64, c.x), c.x), flat(y, c.y)},
					Payloads: map[int]*CSRLocal{1: csr},
				})
			})
		}
	}
}

// TestNewCSRLocal checks the layout of a block whose rows start inside a
// larger matrix, and that a malformed structure panics naming its fault.
func TestNewCSRLocal(t *testing.T) {
	// Rows 1..6 of a 7-row matrix: lengths 3, 2, 4, 2, 0, 1.
	rowPtr := []int{0, 1, 4, 6, 10, 12, 12, 13}
	col := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	c := NewCSRLocal(rowPtr[1:], col, BufF64([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}))
	// The chunk's shortest row has 2 entries: two quads, then the residual
	// of rows 0 and 2, then rows 4 and 5 whole.
	wantCol := []int32{1, 4, 6, 10, 2, 5, 7, 11, 3, 8, 9, 12}
	if c.Rows() != 6 || fmt.Sprint(c.col) != fmt.Sprint(wantCol) || fmt.Sprint(c.val.F64()) != fmt.Sprint(wantCol) ||
		fmt.Sprint(c.chunkPtr) != "[0 8]" || fmt.Sprint(c.tailPtr) != "[8 9 9 11 11 11 12]" ||
		fmt.Sprint(c.tailRows) != "[0 2]" || c.maxCol != 12 {
		t.Fatalf("layout rows %d col %v val %v chunkPtr %v tailPtr %v tailRows %v maxCol %d",
			c.Rows(), c.col, c.val.F64(), c.chunkPtr, c.tailPtr, c.tailRows, c.maxCol)
	}
	wide := int64(math.MaxInt32) + 1
	for _, f := range []struct {
		name  string
		build func()
		cause string
	}{
		{"no offsets", func() { NewCSRLocal([]int32{}, nil, BufF64(nil)) }, "rowPtr is empty"},
		{"decreasing", func() { NewCSRLocal([]int32{0, 2, 1}, []int32{0, 1}, BufF64(make([]float64, 2))) }, "decreases at row 1"},
		{"past the values", func() { NewCSRLocal([]int32{0, 2}, []int32{0, 1}, BufF64(make([]float64, 1))) }, "outside 2 columns and 1 values"},
		{"negative column", func() { NewCSRLocal([]int32{0, 1}, []int32{-1}, BufF32(make([]float32, 1))) }, "column -1 at entry 0 outside"},
		{"wide column", func() { NewCSRLocal([]int{0, 1}, []int{int(wide)}, AllocBuffer(I32, 1)) }, "outside [0, MaxInt32]"},
	} {
		t.Run(f.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, f.cause) {
					t.Fatalf("panic %q, want one naming %q", msg, f.cause)
				}
			}()
			f.build()
		})
	}
}
