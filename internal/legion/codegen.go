package legion

import (
	"sync/atomic"

	"diffuse/internal/kir"
)

// The runtime side of the compiled-kernel (codegen) backend: a runtime
// that executes tasks itself with codegen on attaches a kir.CodegenProgram
// to every compiled form its kernel cache creates (kernelFor). The entry
// is keyed by the kernel's structure, so the program is built once per
// structure: unfused streams mint a fresh kernel object per task every
// iteration and still reuse it. Programs hold no region references: a
// program outlives any store.

// CodegenMode selects the kernel tier of element loops, once per runtime.
// The zero value is on: codegen is the default tier, and the interpreter
// runs only with it off and in the reference backend (internal/oracle);
// no element loop falls back from one to the other. Every other loop kind
// (SpMV, GEMV, Random, Iota, axis reductions) runs the same native loop
// in either mode.
type CodegenMode int

// Codegen modes.
const (
	// CodegenOn lowers every element loop of every locally executed
	// kernel through the closure backend.
	CodegenOn CodegenMode = iota
	// CodegenOff runs every element loop interpreted — the bit-identical
	// reference configuration benchmarks compare against.
	CodegenOff
)

// CodegenStats is a snapshot of the backend's activity counters.
type CodegenStats struct {
	// TasksCompiled / TasksInterpreted count index-task executions whose
	// kernel did / did not run its element loops on a codegen program.
	// A kernel of SpMV, GEMV, generator or axis-reduction loops alone
	// counts as interpreted: those loops run one native loop either way.
	TasksCompiled    int64
	TasksInterpreted int64
	// CacheHits / CacheMisses count lookups of the kernel cache by a
	// runtime that executes with codegen on: every executed task and every
	// fused kernel the fusion layer compiles looks its structure up once,
	// and a miss compiles it and builds its program.
	CacheHits   int64
	CacheMisses int64
}

// codegenCounters holds the live counters. Cache hits/misses are bumped
// under rt.mu (kernelFor), task counts under execMu (the chunked and
// sharded executor paths); atomics keep the snapshot getter lock-free and
// the two lock domains independent.
type codegenCounters struct {
	tasksCompiled    atomic.Int64
	tasksInterpreted atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
}

// SetCodegen selects the execution backend. Like SetShards, it must be
// called before any task executes: compiled forms already cached keep the
// backend they were built with.
func (rt *Runtime) SetCodegen(m CodegenMode) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.codegen = m
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
// resident in the kernel cache — the shared asset a multi-tenant server
// amortizes across tenants. Only a runtime that executes with codegen on
// builds programs, one per cached structure.
func (rt *Runtime) ProgramsCached() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.buildsProgramsLocked() {
		return 0
	}
	return len(rt.kernels)
}

// buildsProgramsLocked reports whether this runtime executes kernels
// itself on the codegen backend. Callers hold rt.mu.
func (rt *Runtime) buildsProgramsLocked() bool {
	return rt.backend == nil && rt.codegen == CodegenOn
}

// countBackend records which backend an index task's kernel executes on.
// Called once per index task by each executor path (chunked, sharded),
// under execMu.
func (rt *Runtime) countBackend(c *kir.Compiled) {
	if c.HasCodegen() {
		rt.cgStats.tasksCompiled.Add(1)
	} else {
		rt.cgStats.tasksInterpreted.Add(1)
	}
}
