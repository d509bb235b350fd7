package ir

import "diffuse/internal/hash128"

// This file is the product form of the canonical representation of paper
// §5.2: the same isomorphism Canonicalize renders as text, folded into a
// 128-bit structural key without rendering anything. Canonicalize stays as
// the oracle the key is tested against (core's key-oracle test on the
// suites' traffic, FuzzWindowKey on adversarial windows): two windows must
// have equal keys exactly when they have equal canonical strings.
//
// The work splits by what depends on a task's position in its window.
// Seal folds everything that does not — name, launch domain, kernel body,
// and each argument's privilege, reduction operator and partition — once,
// at submission. WindowScan folds what does: which arguments name the same
// store (as first-appearance indices, so store identities drop out), each
// store's shape, element type, shard count and liveness bit where it
// first appears, and each argument's repartition generation relative to
// that first appearance.

// Domain tags of the two hashes minted here.
const (
	hashTask   = 0x7461736b // "task"
	hashWindow = 0x77696e64 // "wind"
)

// Seal computes and caches the task's position-independent structural
// hash. core.Session.Submit calls it after stamping dtypes and shard
// generations; the task's name, launch, kernel and argument list must not
// change afterwards.
func (t *Task) Seal() {
	h := hash128.New(hashTask)
	h.String(t.Name)
	hashRect(&h, t.Launch)
	h.Fold(t.Kernel.FingerprintHash())
	h.Int(len(t.Args))
	for i := range t.Args {
		a := &t.Args[i]
		h.Word(uint64(a.Priv))
		// Canonicalize prints the operator of reductions only.
		if a.Priv == Reduce {
			h.Word(uint64(a.Red))
		}
		h.Fold(a.Part.Hash())
	}
	t.hash, t.sealed = h.Sum(), true
}

// WindowScan is reusable scratch for keying one window at a time. Scan
// indexes the window's stores; the caller then decides each store's Live
// bit (it owns the liveness snapshot, and needs Refs to see references
// held from outside the window); Key folds the memo key from the sealed
// tasks and those bits; Release drops the store pointers. Between Scan and
// Release the first-appearance indices double as dense store numbers for
// whoever analyzes the window (ArgStores), so a memo miss indexes slices
// where it would otherwise hash store identities again. The zero value is
// ready, and nothing allocates once the scratch has grown to the largest
// window seen.
type WindowScan struct {
	// Stores lists the window's distinct stores in order of first
	// appearance.
	Stores []ScanStore

	pos  map[StoreID]int32 // store → index into Stores
	args []int32           // per argument in window order: index into Stores
}

// ScanStore is one distinct store of a scanned window.
type ScanStore struct {
	Store *Store
	// Refs counts the window's arguments naming the store.
	Refs int64
	// Live is the caller's liveness fact, the "{live}"/"{dead}" of the
	// canonical string. Scan resets it.
	Live bool

	gen0 int64 // ShardGen of the first appearance
}

// Scan indexes the stores of a window, replacing any previous scan.
func (w *WindowScan) Scan(window []*Task) {
	if w.pos == nil {
		w.pos = map[StoreID]int32{}
	}
	clear(w.pos)
	w.Stores, w.args = w.Stores[:0], w.args[:0]
	for _, t := range window {
		for i := range t.Args {
			a := &t.Args[i]
			di, seen := w.pos[a.Store.id]
			if !seen {
				di = int32(len(w.Stores))
				w.pos[a.Store.id] = di
				w.Stores = append(w.Stores, ScanStore{Store: a.Store, gen0: a.ShardGen})
			}
			w.Stores[di].Refs++
			w.args = append(w.args, di)
		}
	}
}

// ArgStores returns, for every argument of the scanned window in window
// order (task by task, argument by argument), the index into Stores of the
// store it names. It is valid between Scan and Release, and only until the
// next Scan; the caller must not modify it.
func (w *WindowScan) ArgStores() []int32 { return w.args }

// Key returns the structural memo key of the window last passed to Scan.
// Every task must have been sealed.
func (w *WindowScan) Key(window []*Task) hash128.Sum {
	h := hash128.New(hashWindow)
	next, ai := int32(0), 0
	for _, t := range window {
		if !t.sealed {
			panic("ir: window key over a task that was never sealed: " + t.Name)
		}
		h.Fold(t.hash)
		for i := range t.Args {
			di := w.args[ai]
			ai++
			s := &w.Stores[di]
			h.Word(uint64(di))
			if di == next {
				// First appearance (indices are handed out in this
				// order): the store's own facts, once.
				next++
				h.Ints(s.Store.shape)
				h.Word(uint64(s.Store.dtype))
				h.Int(s.Store.ShardCount())
				h.Bool(s.Live)
			}
			h.Word(uint64(t.Args[i].ShardGen - s.gen0))
		}
	}
	return h.Sum()
}

// Release forgets the scanned stores, so idle scratch pins nothing.
func (w *WindowScan) Release() {
	clear(w.Stores)
	w.Stores = w.Stores[:0]
}
