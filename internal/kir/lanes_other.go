//go:build !amd64

package kir

import (
	"math"
	"unsafe"
)

// detectLanes finds no lanes off amd64: every routine keeps its Go code.
func detectLanes() laneSet { return 0 }

// maxOf is maxBlock's Go loop: math.Max, the interpreter's call, whose NaN
// bits differ by architecture.
func maxOf(x, y float64) float64 { return math.Max(x, y) }

// The AVX2 entries, which an empty lane set never reaches.

const noLanes = "kir: no native lanes on this architecture"

func gemvQuadsAVX2(r0, r1, x unsafe.Pointer, n int, p unsafe.Pointer) { panic(noLanes) }

func spmvQuadsAVX2(y, val *float64, col *int32, x *float64, chunkPtr *int32, chunks int) {
	panic(noLanes)
}

func expQuadsAVX2(d, a *float64, n int) int { panic(noLanes) }

func logQuadsAVX2(d, a *float64, n int) int { panic(noLanes) }

func erfQuadsAVX2(d, a *float64, n int) int { panic(noLanes) }

func erfSplitAVX2(a *float64, n int, v *float64, idx *int64, stride int) (small, mid, big int) {
	panic(noLanes)
}

func erfScatter(d, v *float64, idx *int64, n int) { panic(noLanes) }

func addQuadsAVX2(d, a, b *float64, n int) { panic(noLanes) }

func subQuadsAVX2(d, a, b *float64, n int) { panic(noLanes) }

func mulQuadsAVX2(d, a, b *float64, n int) { panic(noLanes) }

func divQuadsAVX2(d, a, b *float64, n int) { panic(noLanes) }

func maxQuadsAVX2(d, a, b *float64, n int) { panic(noLanes) }

func sqrtQuadsAVX2(d, a *float64, n int) { panic(noLanes) }

func negNumQuadsAVX2(d, a *float64, n int) { panic(noLanes) }

func axpyQuadsAVX2(d, x, m0, m1 *float64, n int, shape int) { panic(noLanes) }
