//go:build !amd64

package kir

import "math"

// vmathNative is false off amd64: the transcendental block ops keep their
// per-element math loops.
var vmathNative = false

func vmathUsable() bool { return false }

func cpuFMA() bool { return false }

func expBlock(d, a []float64) {
	for i := range d {
		d[i] = math.Exp(a[i])
	}
}

func logBlock(d, a []float64) {
	for i := range d {
		d[i] = math.Log(a[i])
	}
}

func erfBlock(d, a []float64) {
	for i := range d {
		d[i] = math.Erf(a[i])
	}
}
