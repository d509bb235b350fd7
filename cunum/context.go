// Package cunum is a NumPy-flavoured distributed array library in the
// mould of cuPyNumeric (Bauer & Garland 2019): arrays map onto Diffuse
// stores, operations map onto index tasks launched over partitioned data,
// and slices are aliasing views of the parent array expressed as
// differently-offset Tiling partitions of the same store — exactly the
// architecture the paper's Fig. 1 example relies on. Every operation
// registers a kernel-IR generator so Diffuse's JIT can fuse kernels across
// operation (and library) boundaries.
//
// Reference-count convention (the stand-in for Python's refcounting, which
// Diffuse's temporary-store elimination consumes as Definition 4's "no
// live application references"): every operation returns an ephemeral
// array; an operation that consumes an ephemeral input releases it after
// issuing its task. Call Keep on any intermediate you intend to reuse, and
// Free on arrays you are done with.
package cunum

import (
	"fmt"

	"diffuse/internal/core"
	"diffuse/internal/ir"
)

// Context issues cunum operations into one session of a Diffuse runtime.
type Context struct {
	rt    *core.Runtime
	sess  *core.Session
	procs int
	grid2 [2]int // processor grid used for 2-D arrays

	// The three launch domains every task of this context is issued over,
	// built once: rectangles are never written after construction, so all
	// tasks and partitions share them.
	launch1, launch2, launchScalar ir.Rect
	// The replicated partitions over those three domains, shared the same
	// way (a None partition is its color space and nothing else).
	rep1, rep2, repScalar *ir.NonePart

	in interns // view tilings and registry-op kernels (intern.go)
}

// NewContext wraps a Diffuse runtime, issuing into its default session.
func NewContext(rt *core.Runtime) *Context {
	return newContext(rt, rt.DefaultSession())
}

// NewDistributedContext creates a Diffuse runtime distributed over the
// given number of rank processes (core.Config.Ranks; the current binary
// is re-executed once per rank, so main() must call dist.MaybeRankMain —
// or the diffuse.MaybeRankMain facade — before anything else) and wraps
// its default session. Arrays live replicated on the ranks; reads (ToHost,
// Get, Scalar, futures) gather from rank 0 after a collective drain, and
// results are bit-identical to an in-process context with Shards equal to
// the rank count. Call Close when done to shut the ranks down.
func NewDistributedContext(ranks int) *Context {
	cfg := core.DefaultConfig(ranks)
	cfg.Ranks = ranks
	return NewContext(core.New(cfg))
}

// Close ends the underlying runtime's life (core.Runtime.Close): a
// distributed runtime shuts its rank processes down and reports the first
// failure any rank hit; an in-process one releases its array data at once
// and returns nil. Nothing may be issued or read afterwards.
func (c *Context) Close() error { return c.rt.Close() }

// NewSessionContext wraps one session of a shared runtime. Independent
// goroutines each create a session (core.Runtime.NewSession) and a context
// over it; every context then has its own ordered task stream and fusion
// window while arrays remain shared through the runtime's store namespace.
// A context, like its session, must be used from a single goroutine.
//
// Cross-session coherence: read-backs (ToHost, Get, Scalar, futures) force
// only the reading session's own buffered tasks. To hand an array from one
// session to another, the producing session must flush (or force a future
// on) the producing tasks first; otherwise the reader observes the store's
// prior contents.
func NewSessionContext(sess *core.Session) *Context {
	return newContext(sess.Runtime(), sess)
}

func newContext(rt *core.Runtime, sess *core.Session) *Context {
	p := rt.Procs()
	pr, pc := factor2(p)
	c := &Context{
		rt: rt, sess: sess, procs: p, grid2: [2]int{pr, pc},
		launch1:      ir.MakeRect(ir.Point{0}, ir.Point{p}),
		launch2:      ir.MakeRect(ir.Point{0, 0}, ir.Point{pr, pc}),
		launchScalar: ir.MakeRect(ir.Point{0}, ir.Point{1}),
		in:           newInterns(),
	}
	c.rep1, c.rep2, c.repScalar = ir.ReplicateOver(c.launch1), ir.ReplicateOver(c.launch2), ir.ReplicateOver(c.launchScalar)
	return c
}

// Runtime returns the underlying Diffuse runtime.
func (c *Context) Runtime() *core.Runtime { return c.rt }

// Session returns the session this context issues into.
func (c *Context) Session() *core.Session { return c.sess }

// Flush drains this session's entire task window (the flush_window of the
// paper's Fig. 6). Read-backs (ToHost, Get, Scalar, futures) do not call
// it — they force only the dependency closure of the store being read, so
// unrelated buffered work stays in the window.
func (c *Context) Flush() { c.sess.Flush() }

// Procs returns the processor count operations are decomposed over.
func (c *Context) Procs() int { return c.procs }

// factor2 returns the most balanced pr*pc == p factorization.
func factor2(p int) (int, int) {
	best := 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			best = f
		}
	}
	return best, p / best
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// launchFor returns the launch domain used for arrays of the given rank.
func (c *Context) launchFor(rank int) ir.Rect {
	switch rank {
	case 1:
		return c.launch1
	case 2:
		return c.launch2
	default:
		panic(fmt.Sprintf("cunum: rank %d arrays not supported", rank))
	}
}

// replicatedFor returns the replicated partition over launchFor(rank).
func (c *Context) replicatedFor(rank int) *ir.NonePart {
	if rank == 2 {
		return c.rep2
	}
	return c.rep1
}

// scalarLaunch is the single-point launch domain of scalar (shape-[1])
// operations; the launch-domain-equivalence constraint correctly prevents
// fusing them with vector operations.
func (c *Context) scalarLaunch() ir.Rect { return c.launchScalar }

// gridFor returns the per-dimension processor grid for a view of the given
// rank.
func (c *Context) gridFor(rank int) []int {
	switch rank {
	case 1:
		return []int{c.procs}
	case 2:
		return []int{c.grid2[0], c.grid2[1]}
	default:
		panic(fmt.Sprintf("cunum: rank %d arrays not supported", rank))
	}
}
