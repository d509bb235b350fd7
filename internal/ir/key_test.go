package ir_test

// Adversarial half of the memo key's oracle (the in-tree half is
// internal/core's key-oracle tests). The product path keys a window with
// Task.Seal + KeyStream.Key; Canonicalize is the specification. A seed
// expands into a small window, a renamed twin of it, and one mutant per
// field the key depends on; over all of them the two equalities must
// coincide: a mutation changes the key iff it changes the string, and
// renaming stores changes neither. Each window is also keyed through one
// stream while tasks are pushed and head tasks dropped in random order:
// after every step the stream's key must equal a rebuilt stream's, and
// join the same iff.

import (
	"fmt"
	"math/rand"
	"testing"

	"diffuse/internal/hash128"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// The window is generated as plain data so that it can be mutated one
// field at a time and rebuilt over fresh stores.
type (
	keyStore struct {
		shape []int
		dtype ir.DType
		live  bool
	}
	keyPart struct {
		none                       bool
		view, tile, offset, stride []int
		proj                       int // index into keyProjs
		colors                     ir.Rect
	}
	keyArg struct {
		store int
		priv  ir.Privilege
		red   ir.ReduceOp
		part  keyPart
	}
	keyTask struct {
		name     string
		launch   ir.Rect
		opaque   bool // nil kernel
		imm      float64
		paramDTs []ir.DType
		args     []keyArg
	}
	keyWindow struct {
		stores []keyStore
		tasks  []keyTask
	}
)

var keyProjs = []*ir.Projection{
	nil, // identity
	ir.NewProjection("key-fuzz-swap", func(p ir.Point) ir.Point { return p }),
	ir.NewProjection("key-fuzz-row", func(p ir.Point) ir.Point { return p }),
}

func randRect(rng *rand.Rand, rank int) ir.Rect {
	lo, hi := make(ir.Point, rank), make(ir.Point, rank)
	for d := range lo {
		lo[d] = rng.Intn(2)
		hi[d] = lo[d] + 1 + rng.Intn(4)
	}
	return ir.Rect{Lo: lo, Hi: hi}
}

func randInts(rng *rand.Rand, n, lo, span int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = lo + rng.Intn(span)
	}
	return v
}

func genKeyWindow(rng *rand.Rand) *keyWindow {
	w := &keyWindow{}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		w.stores = append(w.stores, keyStore{
			shape: randInts(rng, 1+rng.Intn(2), 1, 9),
			dtype: ir.DType(rng.Intn(3)),
			live:  rng.Intn(2) == 0,
		})
	}
	names := []string{"add", "mul", "fill", "copy", "spmv"}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		rank := 1 + rng.Intn(2)
		t := keyTask{
			name:   names[rng.Intn(len(names))],
			launch: randRect(rng, rank),
			opaque: rng.Intn(6) == 0,
			imm:    float64(rng.Intn(3)),
		}
		for j, na := 0, 1+rng.Intn(3); j < na; j++ {
			a := keyArg{
				store: rng.Intn(len(w.stores)),
				priv:  ir.Privilege(rng.Intn(4)),
				red:   ir.ReduceOp(rng.Intn(4)),
				part:  keyPart{none: rng.Intn(3) == 0, colors: t.launch},
			}
			if !a.part.none {
				a.part.view = randInts(rng, rank, 4, 8)
				a.part.tile = randInts(rng, rank, 1, 4)
				a.part.offset = randInts(rng, rank, 0, 3)
				a.part.stride = randInts(rng, rank, 1, 2)
				a.part.proj = rng.Intn(len(keyProjs))
			}
			t.args = append(t.args, a)
			t.paramDTs = append(t.paramDTs, ir.DType(rng.Intn(3)))
		}
		w.tasks = append(w.tasks, t)
	}
	return w
}

func (w *keyWindow) clone() *keyWindow {
	c := &keyWindow{stores: append([]keyStore(nil), w.stores...)}
	for i := range c.stores {
		c.stores[i].shape = append([]int(nil), c.stores[i].shape...)
	}
	for _, t := range w.tasks {
		t.paramDTs = append([]ir.DType(nil), t.paramDTs...)
		t.launch = ir.MakeRect(t.launch.Lo, t.launch.Hi)
		t.args = append([]keyArg(nil), t.args...)
		for i := range t.args {
			p := &t.args[i].part
			p.view = append([]int(nil), p.view...)
			p.tile = append([]int(nil), p.tile...)
			p.offset = append([]int(nil), p.offset...)
			p.stride = append([]int(nil), p.stride...)
			p.colors = ir.MakeRect(p.colors.Lo, p.colors.Hi)
		}
		c.tasks = append(c.tasks, t)
	}
	return c
}

// render builds the window over fresh stores and returns both forms of
// its identity, with the window and its liveness facts. rename > 0 burns
// that many store IDs first and allocates the stores in reverse order, so
// nothing that identifies a store survives except how the arguments share
// it.
func (w *keyWindow) render(t testing.TB, rename int) (hash128.Sum, string, []*ir.Task, map[ir.StoreID]bool) {
	t.Helper()
	var f ir.Factory
	for i := 0; i < rename; i++ {
		f.NewStore("burn", []int{1})
	}
	stores := make([]*ir.Store, len(w.stores))
	live := map[ir.StoreID]bool{}
	for i := range w.stores {
		si := i
		if rename > 0 {
			si = len(w.stores) - 1 - i
		}
		ks := w.stores[si]
		s := f.NewStoreTyped("s", ks.shape, ks.dtype)
		stores[si], live[s.ID()] = s, ks.live
	}
	window := make([]*ir.Task, len(w.tasks))
	for ti, kt := range w.tasks {
		t := &ir.Task{Name: kt.name, Launch: kt.launch}
		for _, ka := range kt.args {
			var part ir.Partition = ir.ReplicateOver(ka.part.colors)
			if !ka.part.none {
				part = ir.NewTiling(ka.part.colors, ka.part.view, ka.part.tile, ka.part.offset, ka.part.stride, keyProjs[ka.part.proj])
			}
			t.Args = append(t.Args, ir.Arg{Store: stores[ka.store], Part: part, Priv: ka.priv, Red: ka.red})
		}
		if !kt.opaque {
			out := len(kt.args) - 1
			k := kir.NewKernel(kt.name, len(kt.args))
			for p, dt := range kt.paramDTs {
				k.SetDType(p, dt)
			}
			k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "d", Ext: []int{1}, ExtRef: out,
				Stmts: []kir.Stmt{{Kind: kir.KStore, Param: out, E: kir.Binary(kir.OpAdd, kir.Load(0), kir.Const(kt.imm))}}})
			t.Kernel = k
		}
		t.Seal()
		window[ti] = t
	}
	k := streamOf(window)
	// ArgStores against an index built here from store identities alone:
	// first-appearance numbers, one per argument, naming the right store.
	first, argStores, ai := map[ir.StoreID]int32{}, k.ArgStores(), 0
	for _, task := range window {
		for _, a := range task.Args {
			want, seen := first[a.Store.ID()]
			if !seen {
				want = int32(len(first))
				first[a.Store.ID()] = want
			}
			if ai >= len(argStores) || argStores[ai] != want || k.Stores[want].Store != a.Store {
				t.Fatalf("argument %d of the window (task %s): ArgStores %v, want store index %d", ai, task.Name, argStores, want)
			}
			ai++
		}
	}
	if ai != len(argStores) || len(first) != len(k.Stores) {
		t.Fatalf("ArgStores has %d entries over %d stores, want %d over %d", len(argStores), len(k.Stores), ai, len(first))
	}
	key, str := keyOf(k, live), canonical(window, live)
	return key, str, window, live
}

// streamOf pushes a window into a fresh stream and snapshots it.
func streamOf(window []*ir.Task) *ir.KeyStream {
	k := &ir.KeyStream{}
	for _, t := range window {
		k.Push(t)
	}
	k.Snapshot()
	return k
}

// keyOf keys a stream's window under the given liveness facts.
func keyOf(k *ir.KeyStream, live map[ir.StoreID]bool) hash128.Sum {
	k.Snapshot()
	for i := range k.Stores {
		k.Stores[i].Live = live[k.Stores[i].Store.ID()]
	}
	return k.Key()
}

func canonical(window []*ir.Task, live map[ir.StoreID]bool) string {
	return ir.Canonicalize(window, func(s *ir.Store) string {
		if live[s.ID()] {
			return "live"
		}
		return "dead"
	})
}

// streamEdits keys a rendered window through one stream that grows and
// shrinks at random: tasks are pushed in order and the head is dropped as
// an emitted prefix. After every step the stream's key must equal that of
// a stream rebuilt from scratch over the same tasks and liveness, and see
// joins it to the iff. The stream keys after every step, so tokens are
// cached across each drop that follows.
func streamEdits(t *testing.T, rng *rand.Rand, window []*ir.Task, live map[ir.StoreID]bool, see func(what string, key hash128.Sum, str string)) {
	t.Helper()
	var k ir.KeyStream
	lo, hi := 0, 0
	for lo < len(window) {
		what := "push"
		switch {
		case hi < len(window) && (lo == hi || rng.Intn(3) > 0):
			k.Push(window[hi])
			hi++
		default:
			what = "drop"
			n := 1 + rng.Intn(hi-lo)
			k.Drop(n)
			lo += n
		}
		if k.Len() != hi-lo {
			t.Fatalf("%s: stream holds %d tasks, want %d", what, k.Len(), hi-lo)
		}
		if lo == hi {
			continue
		}
		got, want := keyOf(&k, live), keyOf(streamOf(window[lo:hi]), live)
		if got != want {
			t.Fatalf("%s: the stream keys tasks [%d,%d) %x, a rebuilt stream %x\n%s", what, lo, hi, got, want, canonical(window[lo:hi], live))
		}
		see("stream "+what, got, canonical(window[lo:hi], live))
	}
}

// keyMutations are the single-field edits, one per input of the key. Each
// picks its site with rng; an edit that cannot apply (no tiling in the
// window, say) leaves the window alone, which the iff below accepts.
var keyMutations = []struct {
	name string
	edit func(rng *rand.Rand, w *keyWindow)
}{
	{"task name", func(rng *rand.Rand, w *keyWindow) { pickTask(rng, w).name += "x" }},
	{"launch lo", func(rng *rand.Rand, w *keyWindow) { t := pickTask(rng, w); t.launch.Lo[rng.Intn(len(t.launch.Lo))]-- }},
	{"launch hi", func(rng *rand.Rand, w *keyWindow) { t := pickTask(rng, w); t.launch.Hi[rng.Intn(len(t.launch.Hi))]++ }},
	{"kernel immediate", func(rng *rand.Rand, w *keyWindow) { pickTask(rng, w).imm += 0.5 }},
	{"kernel presence", func(rng *rand.Rand, w *keyWindow) { t := pickTask(rng, w); t.opaque = !t.opaque }},
	{"param dtype", func(rng *rand.Rand, w *keyWindow) {
		t := pickTask(rng, w)
		p := rng.Intn(len(t.paramDTs))
		t.paramDTs[p] = (t.paramDTs[p] + 1) % 3
	}},
	{"drop task", func(rng *rand.Rand, w *keyWindow) {
		i := rng.Intn(len(w.tasks))
		w.tasks = append(w.tasks[:i], w.tasks[i+1:]...)
	}},
	{"swap tasks", func(rng *rand.Rand, w *keyWindow) {
		i, j := rng.Intn(len(w.tasks)), rng.Intn(len(w.tasks))
		w.tasks[i], w.tasks[j] = w.tasks[j], w.tasks[i]
	}},
	{"drop arg", func(rng *rand.Rand, w *keyWindow) {
		t := pickTask(rng, w)
		if len(t.args) > 1 {
			t.args, t.paramDTs = t.args[:len(t.args)-1], t.paramDTs[:len(t.paramDTs)-1]
		}
	}},
	{"move arg to next task", func(rng *rand.Rand, w *keyWindow) {
		// Same argument sequence, different task boundary.
		i := rng.Intn(len(w.tasks))
		if t := &w.tasks[i]; i+1 < len(w.tasks) && len(t.args) > 1 {
			n := &w.tasks[i+1]
			last := len(t.args) - 1
			n.args = append([]keyArg{t.args[last]}, n.args...)
			n.paramDTs = append([]ir.DType{t.paramDTs[last]}, n.paramDTs...)
			t.args, t.paramDTs = t.args[:last], t.paramDTs[:last]
		}
	}},
	{"store shape", func(rng *rand.Rand, w *keyWindow) { s := pickStore(rng, w); s.shape[rng.Intn(len(s.shape))]++ }},
	{"store rank", func(rng *rand.Rand, w *keyWindow) { s := pickStore(rng, w); s.shape = append(s.shape, 1) }},
	{"store dtype", func(rng *rand.Rand, w *keyWindow) { s := pickStore(rng, w); s.dtype = (s.dtype + 1) % 3 }},
	{"store liveness", func(rng *rand.Rand, w *keyWindow) { s := pickStore(rng, w); s.live = !s.live }},
	{"privilege", func(rng *rand.Rand, w *keyWindow) { a := pickArg(rng, w); a.priv = (a.priv + 1) % 4 }},
	{"reduction operator", func(rng *rand.Rand, w *keyWindow) { a := pickArg(rng, w); a.red = (a.red + 1) % 4 }},
	{"aliasing", func(rng *rand.Rand, w *keyWindow) { a := pickArg(rng, w); a.store = (a.store + 1) % len(w.stores) }},
	{"partition kind", func(rng *rand.Rand, w *keyWindow) {
		if p := &pickArg(rng, w).part; !p.none {
			p.none = true
		}
	}},
	{"tiling view", func(rng *rand.Rand, w *keyWindow) { editTiling(rng, w, func(p *keyPart, d int) { p.view[d]++ }) }},
	{"tiling tile", func(rng *rand.Rand, w *keyWindow) { editTiling(rng, w, func(p *keyPart, d int) { p.tile[d]++ }) }},
	{"tiling offset", func(rng *rand.Rand, w *keyWindow) { editTiling(rng, w, func(p *keyPart, d int) { p.offset[d]++ }) }},
	{"tiling stride", func(rng *rand.Rand, w *keyWindow) { editTiling(rng, w, func(p *keyPart, d int) { p.stride[d]++ }) }},
	{"tiling projection", func(rng *rand.Rand, w *keyWindow) {
		editTiling(rng, w, func(p *keyPart, _ int) { p.proj = (p.proj + 1) % len(keyProjs) })
	}},
	{"partition colors", func(rng *rand.Rand, w *keyWindow) {
		p := &pickArg(rng, w).part
		p.colors.Hi[rng.Intn(len(p.colors.Hi))]++
	}},
	{"view/tile boundary", func(rng *rand.Rand, w *keyWindow) {
		// Move one element across the boundary of two adjacent runs.
		editTiling(rng, w, func(p *keyPart, _ int) {
			if len(p.view) > 1 {
				p.tile = append([]int{p.view[len(p.view)-1]}, p.tile...)
				p.view = p.view[:len(p.view)-1]
				p.offset, p.stride = p.offset[:len(p.view)], p.stride[:len(p.view)]
				p.tile = p.tile[:len(p.view)]
			}
		})
	}},
}

func pickTask(rng *rand.Rand, w *keyWindow) *keyTask   { return &w.tasks[rng.Intn(len(w.tasks))] }
func pickStore(rng *rand.Rand, w *keyWindow) *keyStore { return &w.stores[rng.Intn(len(w.stores))] }
func pickArg(rng *rand.Rand, w *keyWindow) *keyArg {
	t := pickTask(rng, w)
	return &t.args[rng.Intn(len(t.args))]
}

func editTiling(rng *rand.Rand, w *keyWindow, edit func(p *keyPart, d int)) {
	for try := 0; try < 8; try++ {
		if p := &pickArg(rng, w).part; !p.none {
			edit(p, rng.Intn(len(p.view)))
			return
		}
	}
}

// checkWindowKey expands one seed and checks every window it yields
// against every other through the two tables, which map each form of a
// window's identity to the other form it was first seen with.
func checkWindowKey(t *testing.T, seed uint64, byKey map[hash128.Sum]string, byString map[string]hash128.Sum) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	base := genKeyWindow(rng)
	see := func(what string, key hash128.Sum, str string) {
		t.Helper()
		if prev, ok := byKey[key]; ok && prev != str {
			t.Fatalf("seed %d, %s: one key, two canonical windows:\n%s---\n%s", seed, what, prev, str)
		}
		if prev, ok := byString[str]; ok && prev != key {
			t.Fatalf("seed %d, %s: one canonical window, two keys (%x, %x):\n%s", seed, what, prev, key, str)
		}
		byKey[key], byString[str] = str, key
	}
	key, str, window, live := base.render(t, 0)
	see("base", key, str)
	for _, rename := range []int{1, 5} {
		rkey, rstr, _, _ := base.render(t, rename)
		if rstr != str || rkey != key {
			t.Fatalf("seed %d: renaming stores changed the window (string changed: %v, key changed: %v)\n%s",
				seed, rstr != str, rkey != key, str)
		}
	}
	for _, m := range keyMutations {
		mut := base.clone()
		m.edit(rng, mut)
		if len(mut.tasks) == 0 {
			continue
		}
		mkey, mstr, _, _ := mut.render(t, 0)
		see(m.name, mkey, mstr)
		if (mkey == key) != (mstr == str) {
			t.Fatalf("seed %d: mutation %q: key equal %v, string equal %v\n%s---\n%s",
				seed, m.name, mkey == key, mstr == str, str, mstr)
		}
	}
	streamEdits(t, rng, window, live, see)
}

// TestWindowKeySeeds is the always-on sweep; all seeds share one table, so
// windows of different seeds are checked against each other too.
func TestWindowKeySeeds(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 100
	}
	byKey, byString := map[hash128.Sum]string{}, map[string]hash128.Sum{}
	for seed := 0; seed < n; seed++ {
		checkWindowKey(t, uint64(seed), byKey, byString)
	}
	// The sweep must have exercised both outcomes of the iff.
	if len(byKey) < 10*n {
		t.Fatalf("only %d distinct windows from %d seeds", len(byKey), n)
	}
}

// FuzzWindowKey is the native fuzz target over generator seeds; the
// committed corpus under testdata/fuzz/FuzzWindowKey replays on every
// `go test`.
func FuzzWindowKey(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1234, 99991, 1 << 33, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkWindowKey(t, seed, map[hash128.Sum]string{}, map[string]hash128.Sum{})
	})
}

// TestWindowKeyUnsealedPanics: keying a task that never passed Seal would
// fold a zero hash for it and conflate windows; it is refused instead.
func TestWindowKeyUnsealedPanics(t *testing.T) {
	var f ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	task := &ir.Task{Name: "t", Launch: launch,
		Args: []ir.Arg{{Store: f.NewStore("s", []int{4}), Part: ir.ReplicateOver(launch)}}}
	var k ir.KeyStream
	k.Push(task)
	k.Snapshot()
	defer func() {
		if r := recover(); r == nil || fmt.Sprint(r) != "ir: window key over a task that was never sealed: t" {
			t.Fatalf("recovered %v", r)
		}
	}()
	k.Key()
}
