package kir

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"unsafe"
)

// CSRLocal is the local rows of a CSR matrix owned by one point task,
// stored as SELL-4 (SELL-C-σ with C = 4 and σ = 1, Kreutzer et al., SIAM
// J. Sci. Comput. 36(5), 2014) plus a residual CSR, in place of the CSR
// arrays it is built from:
//
//   - chunk c holds rows 4c..4c+3 and, of each, its first m entries, m
//     the chunk's shortest row: entry j of lane l is at chunkPtr[c]+4j+l,
//     column-major, so a quad of four entries is one entry of each row and
//     nothing is padded or masked;
//   - the residual CSR (tailPtr) holds each chunked row's entries past m,
//     then every entry of the last rows mod 4 rows;
//   - tailRows lists the chunked rows that have residual entries.
//
// Row i's entries are thus its packed ones then its residual ones, in the
// nonzero order of the CSR it was built from, and every SpMV path sums
// them in that order. Column indices are global (they index the full dense
// vector parameter). 32-bit indices mirror the paper's §7 methodology
// (both Legate Sparse and PETSc store coordinates as 32-bit integers);
// values are a typed buffer so matrices store their entries in either
// precision.
type CSRLocal struct {
	rows     int
	chunkPtr []int32
	tailPtr  []int32
	tailRows []int32
	col      []int32
	val      Buffer
	// maxCol is the largest column index, -1 when there is none: one
	// check of the x binding against it stands for a check per gather.
	maxCol int32
}

// NewCSRLocal builds the local rows of a CSR matrix, the len(rowPtr)-1 rows
// whose entries are col[rowPtr[i]:rowPtr[i+1]] and the same range of val.
// rowPtr need not start at 0, so a point's rows can be built straight from
// a whole matrix's arrays; the local copies its entries. It panics on a
// malformed structure: decreasing or out-of-range row offsets, more
// entries than 32-bit offsets hold, or a column outside [0, MaxInt32].
func NewCSRLocal[I int | int32](rowPtr, col []I, val Buffer) *CSRLocal {
	if len(rowPtr) == 0 {
		panic("kir: CSR rowPtr is empty, want rows+1 offsets")
	}
	rows := len(rowPtr) - 1
	base, end := int(rowPtr[0]), int(rowPtr[rows])
	if base < 0 || end > len(col) || end > val.Len() {
		panic(fmt.Sprintf("kir: CSR entries [%d, %d) outside %d columns and %d values", base, end, len(col), val.Len()))
	}
	if end-base > math.MaxInt32 {
		panic(fmt.Sprintf("kir: CSR block of %d entries overflows 32-bit offsets", end-base))
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			panic(fmt.Sprintf("kir: CSR rowPtr decreases at row %d (%d > %d)", i, rowPtr[i], rowPtr[i+1]))
		}
	}
	c := &CSRLocal{
		rows:     rows,
		chunkPtr: make([]int32, rows/4+1),
		tailPtr:  make([]int32, rows+1),
		col:      make([]int32, end-base),
	}
	lo, hi := I(0), I(-1)
	for _, j := range col[base:end] {
		lo, hi = min(lo, j), max(hi, j)
	}
	if lo < 0 || int64(hi) > math.MaxInt32 {
		k := slices.IndexFunc(col[base:end], func(j I) bool { return j < 0 || int64(j) > math.MaxInt32 })
		panic(fmt.Sprintf("kir: CSR column %d at entry %d outside [0, MaxInt32]", col[base+k], base+k))
	}
	c.maxCol = int32(hi)
	switch val.dt {
	case F64:
		c.val = BufF64(pack(c, rowPtr, col[:end], val.f64[:end]))
	case F32:
		c.val = BufF32(pack(c, rowPtr, col[:end], val.f32[:end]))
	default:
		c.val = Buffer{dt: I32, i32: pack(c, rowPtr, col[:end], val.i32[:end])}
	}
	return c
}

// pack fills c's chunks, residual offsets, tail rows and columns from the
// CSR arrays rowPtr, col and val, and returns the values in the layout's
// order.
func pack[T any, I int | int32](c *CSRLocal, rowPtr, col []I, val []T) []T {
	out := make([]T, len(c.col))
	chunks, k := len(c.chunkPtr)-1, 0
	for ch := 0; ch < chunks; ch++ {
		r := rowPtr[4*ch : 4*ch+5 : 4*ch+5]
		m := int(min(r[1]-r[0], r[2]-r[1], r[3]-r[2], r[4]-r[3]))
		for j := 0; j < m; j++ {
			for _, lo := range r[:4] {
				s := int(lo) + j
				c.col[k], out[k] = int32(col[s]), val[s]
				k++
			}
		}
		c.chunkPtr[ch+1] = int32(k)
	}
	for i := 0; i < c.rows; i++ {
		c.tailPtr[i] = int32(k)
		lo := int(rowPtr[i])
		if ch := i / 4; ch < chunks {
			if lo += int(c.chunkPtr[ch+1]-c.chunkPtr[ch]) / 4; lo < int(rowPtr[i+1]) {
				c.tailRows = append(c.tailRows, int32(i))
			}
		}
		for s := lo; s < int(rowPtr[i+1]); s++ {
			c.col[k], out[k] = int32(col[s]), val[s]
			k++
		}
	}
	c.tailPtr[c.rows] = int32(k)
	return out
}

// Rows returns the number of local rows.
func (c *CSRLocal) Rows() int { return c.rows }

// entries yields the offsets of row i's entries in col and val, in the
// row's nonzero order: its packed entries, then its residual ones.
func (c *CSRLocal) entries(i int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if ch := i / 4; ch < len(c.chunkPtr)-1 {
			for k := int(c.chunkPtr[ch]) + i%4; k < int(c.chunkPtr[ch+1]); k += 4 {
				if !yield(k) {
					return
				}
			}
		}
		for k := int(c.tailPtr[i]); k < int(c.tailPtr[i+1]); k++ {
			if !yield(k) {
				return
			}
		}
	}
}

// checkBindings panics, naming the binding, unless every element the
// SpMV reads of x (at x.Base+col·xstride) and writes of y (at
// y.Base+i·ystride) lies inside its buffer: the lanes gather x with no
// Go index check.
func (c *CSRLocal) checkBindings(x, y Accessor, xstride, ystride int) {
	if c.maxCol >= 0 {
		if last := x.Base + int(c.maxCol)*xstride; last >= x.Data.Len() {
			panic(fmt.Sprintf("kir: SpMV x binding holds %d elements, column %d reads element %d", x.Data.Len(), c.maxCol, last))
		}
	}
	if last := y.Base + (c.rows-1)*ystride; last >= y.Data.Len() {
		panic(fmt.Sprintf("kir: SpMV y binding holds %d elements, row %d writes element %d", y.Data.Len(), c.rows-1, last))
	}
}

// spmvUnit sets yv[i], i < Rows(), to row i's sum over its entries of
// val·x[col] from +0, in the row's nonzero order: the f64 SpMV at unit
// strides. The chunks run four rows at a time, lane l of chunk c row
// 4c+l's serial sum over its packed entries: in spmvQuadsAVX2's ymm lanes
// where lanes holds laneSpMV (lanes.go), else in four Go accumulators.
// Then each tail row adds its residual entries onto its lane sum, and the
// last rows mod 4 sum theirs from +0. It assumes c.val is f64, and the
// caller has checked xv and yv against c (checkBindings).
func spmvUnit(c *CSRLocal, xv, yv []float64) {
	vals, col := c.val.f64, c.col
	chunks := len(c.chunkPtr) - 1
	switch {
	case chunks == 0:
	case lanes&laneSpMV != 0:
		spmvQuadsAVX2(&yv[0], unsafe.SliceData(vals), unsafe.SliceData(col), unsafe.SliceData(xv), &c.chunkPtr[0], chunks)
	default:
		for ch := 0; ch < chunks; ch++ {
			vs := vals[c.chunkPtr[ch]:c.chunkPtr[ch+1]]
			cs := col[c.chunkPtr[ch]:c.chunkPtr[ch+1]][:len(vs)]
			var s0, s1, s2, s3 float64
			for k := 0; k+4 <= len(vs); k += 4 {
				v, j := vs[k:k+4:k+4], cs[k:k+4:k+4]
				s0 += v[0] * xv[j[0]]
				s1 += v[1] * xv[j[1]]
				s2 += v[2] * xv[j[2]]
				s3 += v[3] * xv[j[3]]
			}
			y := yv[4*ch : 4*ch+4 : 4*ch+4]
			y[0], y[1], y[2], y[3] = s0, s1, s2, s3
		}
	}
	for _, i := range c.tailRows {
		sum := yv[i]
		for k := c.tailPtr[i]; k < c.tailPtr[i+1]; k++ {
			sum += vals[k] * xv[col[k]]
		}
		yv[i] = sum
	}
	for i := 4 * chunks; i < c.rows; i++ {
		sum := 0.0
		for k := c.tailPtr[i]; k < c.tailPtr[i+1]; k++ {
			sum += vals[k] * xv[col[k]]
		}
		yv[i] = sum
	}
}
