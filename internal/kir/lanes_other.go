//go:build !amd64

package kir

import "unsafe"

// detectLanes finds no lanes off amd64: every routine keeps its Go code.
func detectLanes() laneSet { return 0 }

// The AVX2 entries, which an empty lane set never reaches.

const noLanes = "kir: no native lanes on this architecture"

func gemvQuadsAVX2(r0, r1, x unsafe.Pointer, n int, p unsafe.Pointer) { panic(noLanes) }

func expQuadsAVX2(d, a *float64, n int) int { panic(noLanes) }

func logQuadsAVX2(d, a *float64, n int) int { panic(noLanes) }

func erfQuadsAVX2(d, a *float64, n int) int { panic(noLanes) }
