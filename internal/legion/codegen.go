package legion

import (
	"sync/atomic"

	"diffuse/internal/kir"
)

// The runtime side of the compiled-kernel (codegen) backend: a cache of
// kir.CodegenProgram keyed by the kernel's structural identity
// (kir.Kernel.FingerprintHash, the hash the fusion memo key already cached
// on the kernel), attached to every kernel a runtime without a Backend
// compiles. Programs capture only lowering-time structure, so one program
// serves every Compiled whose kernel hashes alike — unfused streams mint a fresh kernel
// object per task every iteration and still hit this cache without
// rendering anything, and a kernel evicted from the per-kernel cache
// (maxKernels) recompiles onto its existing program. Programs hold no
// region references: a program outlives any store.

// CodegenMode toggles the compiled-kernel backend. The zero value is on —
// codegen is the default tier, the interpreter the reference oracle and
// fallback — mirroring WavefrontMode.
type CodegenMode int

// Codegen modes.
const (
	// CodegenOn lowers every locally executed kernel through the closure
	// backend (loops it cannot take stay on the interpreter per-loop).
	CodegenOn CodegenMode = iota
	// CodegenOff runs every kernel fully interpreted — the bit-identical
	// reference configuration benchmarks compare against.
	CodegenOff
)

// maxProgs bounds the program cache exactly like maxKernels bounds the
// per-kernel cache: cleared wholesale on overflow.
const maxProgs = 2048

// CodegenStats is a snapshot of the backend's activity counters.
type CodegenStats struct {
	// TasksCompiled / TasksInterpreted count index-task executions whose
	// kernel did / did not have at least one codegen-lowered loop.
	TasksCompiled    int64
	TasksInterpreted int64
	// CacheHits / CacheMisses count program-cache lookups by kernel
	// identity (misses include first-ever compilations).
	CacheHits   int64
	CacheMisses int64
}

// codegenCounters holds the live counters. Cache hits/misses are bumped
// under rt.mu (the compile path), task counts under execMu (the three
// executor paths); atomics keep the snapshot getter lock-free and the
// two lock domains independent.
type codegenCounters struct {
	tasksCompiled    atomic.Int64
	tasksInterpreted atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
}

// SetCodegen selects the execution backend. Turning codegen off also
// detaches any programs already installed on cached kernels, so a
// runtime toggled mid-stream genuinely reverts to the interpreter.
func (rt *Runtime) SetCodegen(m CodegenMode) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.codegen = m
	if m == CodegenOff {
		for _, e := range rt.kernels {
			e.comp.AttachProgram(nil)
		}
	}
}

// Codegen returns the active backend mode.
func (rt *Runtime) Codegen() CodegenMode {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.codegen
}

// CodegenStatsSnapshot returns the backend's activity counters.
func (rt *Runtime) CodegenStatsSnapshot() CodegenStats {
	return CodegenStats{
		TasksCompiled:    rt.cgStats.tasksCompiled.Load(),
		TasksInterpreted: rt.cgStats.tasksInterpreted.Load(),
		CacheHits:        rt.cgStats.cacheHits.Load(),
		CacheMisses:      rt.cgStats.cacheMisses.Load(),
	}
}

// ProgramsCached returns the number of distinct compiled programs
// resident in the program cache — the shared asset a multi-tenant server
// amortizes across tenants.
func (rt *Runtime) ProgramsCached() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.progs)
}

// attachProgramLocked installs the codegen program for a freshly
// compiled kernel, minting one on first sight of its structure.
// Callers hold rt.mu.
func (rt *Runtime) attachProgramLocked(c *kir.Compiled) {
	fp := c.Kernel.FingerprintHash()
	if p, ok := rt.progs[fp]; ok {
		rt.cgStats.cacheHits.Add(1)
		c.AttachProgram(p)
		return
	}
	rt.cgStats.cacheMisses.Add(1)
	if len(rt.progs) >= maxProgs {
		clear(rt.progs)
	}
	p := kir.Codegen(c)
	rt.progs[fp] = p
	c.AttachProgram(p)
}

// countBackend records which backend an index task's kernel executes on.
// Called once per index task by each executor path (chunked, per-point,
// sharded), under execMu.
func (rt *Runtime) countBackend(c *kir.Compiled) {
	if c.HasCodegen() {
		rt.cgStats.tasksCompiled.Add(1)
	} else {
		rt.cgStats.tasksInterpreted.Add(1)
	}
}
