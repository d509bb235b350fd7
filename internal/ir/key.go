package ir

import "diffuse/internal/hash128"

// This file is the product form of the canonical representation of paper
// §5.2: the same isomorphism Canonicalize renders as text, folded into a
// 128-bit structural key without rendering anything. Canonicalize stays as
// the oracle the key is tested against (core's key-oracle test on the
// suites' traffic, FuzzWindowKey on adversarial windows): two windows must
// have equal keys exactly when they have equal canonical strings.
//
// The work splits three ways, by when each input can change.
//
//   - Seal folds what depends on the task alone — name, launch domain,
//     kernel body, and each argument's privilege, reduction operator and
//     partition — once, at submission.
//   - KeyStream.Push links each argument into the window, and the next Key
//     folds the task's place in it into a token it caches: once per task,
//     not once per analysis. Stores are named by back-references instead
//     of first-appearance indices: an argument records the distance, in
//     arguments, to the previous argument of the window that names the
//     same store. An argument with no such predecessor is new and records
//     the store's shape and element type. Distances survive the emission
//     of the window's head, so a token is recomputed only when emission
//     drops an argument it points to (that argument's successor becomes
//     new).
//   - Key folds what can change between two analyses of the same tasks:
//     the task count, the tokens, and for each store where it first
//     appears the caller's liveness bit (an application release flips it).
//
// Back-references and first-appearance indices describe the same partition
// of the window's arguments by store, so two windows get equal keys
// exactly when their canonical strings are equal.

// Domain tags of the hashes minted here.
const (
	hashTask   = 0x7461736b // "task"
	hashToken  = 0x746f6b6e // "tokn"
	hashWindow = 0x77696e64 // "wind"
)

// Seal computes and caches the task's position-independent structural
// hash. core.Session.Submit calls it after stamping dtypes; the task's
// name, launch, kernel and argument list must not change afterwards.
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

// KeyStream is one session's task window, kept the way the memo key reads
// it. Push appends a submitted task, Drop removes an emitted prefix, and
// Window returns the buffered tasks in order. To key the window, the
// caller runs Snapshot, decides each store's Live bit (it owns the
// liveness facts, and needs Refs to see references held from outside the
// window), then calls Key. Between Snapshot and the next Push, Drop or
// Reset, Stores and ArgStores name every store of the window by a dense
// index, so a memo miss indexes slices where it would otherwise hash store
// identities.
//
// The zero value is ready. Dropped slots are cleared at once, and an empty
// window forgets its Stores, so an idle stream pins no task, kernel,
// payload or store it has emitted, and
// nothing allocates once the buffers have grown to the largest window
// seen.
type KeyStream struct {
	// Stores lists the window's distinct stores in order of first
	// appearance, as of the last Snapshot.
	Stores []WindowStore

	// tasks[head:] is the window and toks[head:] its tokens; args[ahead:]
	// are its arguments, task by task. tbase and abase are the stream
	// numbers of tasks[0] and args[0], which compaction moves.
	tasks        []*Task
	toks         []token
	args         []streamArg
	head, ahead  int
	tbase, abase int64

	// last maps each store of the window to the stream number of its
	// latest argument.
	last map[StoreID]int64
	// dense holds, for every argument of the window, its index into Stores
	// (Snapshot).
	dense []int32
}

// WindowStore is one distinct store of a keyed window.
type WindowStore struct {
	Store *Store
	// Refs counts the window's arguments naming the store.
	Refs int64
	// Live is the caller's liveness fact, the "{live}"/"{dead}" of the
	// canonical string. Snapshot resets it.
	Live bool
}

// token is a task's cached window-relative hash; Key recomputes it when
// valid is clear.
type token struct {
	sum   hash128.Sum
	valid bool
}

// streamArg is one argument of the window.
type streamArg struct {
	store *Store
	task  int64 // stream number of the task it belongs to
	back  int32 // distance to the previous argument naming store; 0: new
	next  int32 // distance to the next one; 0: none in the window
}

// Len returns the number of tasks in the window.
func (k *KeyStream) Len() int { return len(k.tasks) - k.head }

// Window returns the buffered tasks in submission order. The slice is
// valid until the next Push, Drop or Reset; the caller must not modify it.
func (k *KeyStream) Window() []*Task { return k.tasks[k.head:] }

// Push appends a task to the window, linking each argument to the previous
// argument of the window that names the same store. The task's arguments
// must not change while it is buffered.
func (k *KeyStream) Push(t *Task) {
	if k.last == nil {
		k.last = map[StoreID]int64{}
	}
	if mustCompact(k.tasks, k.head, 1) {
		k.tasks, k.toks = compact(k.tasks, k.head), compact(k.toks, k.head)
		k.tbase, k.head = k.tbase+int64(k.head), 0
	}
	tn := k.tbase + int64(len(k.tasks))
	k.tasks = append(k.tasks, t)
	k.toks = append(k.toks, token{})
	if mustCompact(k.args, k.ahead, len(t.Args)) {
		k.args = compact(k.args, k.ahead)
		k.abase, k.ahead = k.abase+int64(k.ahead), 0
	}
	for i := range t.Args {
		a := &t.Args[i]
		n := k.abase + int64(len(k.args))
		sa := streamArg{store: a.Store, task: tn}
		if p, ok := k.last[a.Store.id]; ok {
			sa.back = int32(n - p)
			k.args[p-k.abase].next = sa.back
		}
		k.last[a.Store.id] = n
		k.args = append(k.args, sa)
	}
}

// Drop removes the first n tasks of the window (an emitted prefix). An
// argument whose predecessor leaves becomes new, and its task's token is
// recomputed at the next Key; every other token still holds.
func (k *KeyStream) Drop(n int) {
	end := k.head + n
	aend := k.ahead
	for _, t := range k.tasks[k.head:end] {
		aend += len(t.Args)
	}
	for j := k.ahead; j < aend; j++ {
		a := &k.args[j]
		switch nj := j + int(a.next); {
		case a.next == 0:
			delete(k.last, a.store.id)
		case nj >= aend:
			b := &k.args[nj]
			b.back = 0
			k.toks[b.task-k.tbase].valid = false
		}
		*a = streamArg{}
	}
	clear(k.tasks[k.head:end])
	k.head, k.ahead = end, aend
	if k.head == len(k.tasks) {
		k.tbase += int64(len(k.tasks))
		k.abase += int64(len(k.args))
		k.tasks, k.toks, k.args = k.tasks[:0], k.toks[:0], k.args[:0]
		k.head, k.ahead = 0, 0
		clear(k.Stores)
		k.Stores = k.Stores[:0]
	}
}

// Reset empties the window without emitting it.
func (k *KeyStream) Reset() { k.Drop(k.Len()) }

// mustCompact reports whether a buffer must move its live part down before
// n more elements are appended: it is full, and its dropped head is at
// least half of it. Otherwise append grows it, so each element moves a
// constant number of times on average.
func mustCompact[T any](s []T, head, n int) bool {
	return head > 0 && len(s)+n > cap(s) && 2*head >= len(s)
}

// compact moves s[head:] to the front of s and clears the vacated tail.
func compact[T any](s []T, head int) []T {
	live := copy(s, s[head:])
	clear(s[live:])
	return s[:live]
}

// Snapshot indexes the window's stores in order of first appearance into
// Stores, counts each store's arguments, and clears every Live bit. It
// reads back-references only: no store identity is hashed.
func (k *KeyStream) Snapshot() {
	clear(k.Stores)
	k.Stores = k.Stores[:0]
	args := k.args[k.ahead:]
	if cap(k.dense) < len(args) {
		k.dense = make([]int32, len(args), 2*len(args))
	}
	k.dense = k.dense[:len(args)]
	for j := range args {
		a := &args[j]
		if a.back == 0 {
			k.dense[j] = int32(len(k.Stores))
			k.Stores = append(k.Stores, WindowStore{Store: a.store, Refs: 1})
			continue
		}
		d := k.dense[j-int(a.back)]
		k.dense[j] = d
		k.Stores[d].Refs++
	}
}

// ArgStores returns, for every argument of the window in window order
// (task by task, argument by argument), the index into Stores of the store
// it names. It is valid until the next Snapshot, Push, Drop or Reset; the
// caller must not modify it.
func (k *KeyStream) ArgStores() []int32 { return k.dense }

// Key returns the structural memo key of the window under the liveness
// bits of the last Snapshot. Every task must have been sealed.
func (k *KeyStream) Key() hash128.Sum {
	h := hash128.New(hashWindow)
	h.Int(k.Len())
	j := k.ahead
	for i := k.head; i < len(k.tasks); i++ {
		t, tok := k.tasks[i], &k.toks[i]
		if !tok.valid {
			tok.sum, tok.valid = k.token(t, j), true
		}
		h.Fold(tok.sum)
		j += len(t.Args)
	}
	for i := range k.Stores {
		h.Bool(k.Stores[i].Live)
	}
	return h.Sum()
}

// token folds a task's sealed hash with its arguments' back-references;
// j is the index of its first argument in args.
func (k *KeyStream) token(t *Task, j int) hash128.Sum {
	if !t.sealed {
		panic("ir: window key over a task that was never sealed: " + t.Name)
	}
	h := hash128.New(hashToken)
	h.Fold(t.hash)
	for _, a := range k.args[j : j+len(t.Args)] {
		h.Word(uint64(a.back))
		if a.back == 0 {
			h.Ints(a.store.shape)
			h.Word(uint64(a.store.dtype))
		}
	}
	return h.Sum()
}
