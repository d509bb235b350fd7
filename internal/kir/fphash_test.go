package kir

import (
	"math"
	"math/rand"
	"testing"

	"diffuse/internal/hash128"
)

// fpOracle checks FingerprintHash against the Fingerprint string it
// replaces on the fusion front end: over everything it is shown, two
// kernels must share a hash exactly when they share a fingerprint.
type fpOracle struct {
	byFP   map[string]hash128.Sum
	byHash map[hash128.Sum]string
}

func (o *fpOracle) see(t *testing.T, k *Kernel) {
	t.Helper()
	fp, h := k.Fingerprint(), k.FingerprintHash()
	if prev, ok := o.byFP[fp]; ok && prev != h {
		t.Fatalf("one fingerprint, two hashes:\n%s", fp)
	}
	if prev, ok := o.byHash[h]; ok && prev != fp {
		t.Fatalf("one hash, two fingerprints:\n%s\n%s", prev, fp)
	}
	o.byFP[fp], o.byHash[h] = h, fp
}

func TestFingerprintHashMatchesFingerprint(t *testing.T) {
	o := &fpOracle{byFP: map[string]hash128.Sum{}, byHash: map[hash128.Sum]string{}}
	for seed := int64(0); seed < 400; seed++ {
		dk := randDiffKernel(rand.New(rand.NewSource(seed)), nil)
		o.see(t, dk.k)
		opt, _ := optimize(dk.k, dk.temp, nil)
		o.see(t, opt)
		// A second kernel from the same seed: equal fingerprint, distinct
		// object, so the equal-hash direction is exercised too.
		o.see(t, randDiffKernel(rand.New(rand.NewSource(seed)), nil).k)
	}
	o.see(t, nil)

	// Single-field edits of one small kernel: every one changes the
	// fingerprint, so every one must change the hash.
	base := func(edit func(k *Kernel, l *Loop)) *Kernel {
		k := NewKernel("k", 2)
		l := &Loop{Kind: LoopElem, Dom: "[8]|[1]", Ext: []int{1}, ExtRef: 1,
			Stmts: []Stmt{{Kind: KStore, Param: 1, E: Binary(OpAdd, Load(0), Const(1))}}}
		if edit != nil {
			edit(k, l)
		}
		return k.AddLoop(l)
	}
	edits := []func(k *Kernel, l *Loop){
		nil,
		func(k *Kernel, l *Loop) { l.Stmts[0].E = Binary(OpAdd, Load(0), Const(2)) },
		func(k *Kernel, l *Loop) { l.Stmts[0].E = Binary(OpAdd, Load(0), Const(math.Copysign(0, -1))) },
		func(k *Kernel, l *Loop) { l.Stmts[0].E = Binary(OpAdd, Load(0), Const(0)) },
		func(k *Kernel, l *Loop) { l.Stmts[0].E = Binary(OpSub, Load(0), Const(1)) },
		func(k *Kernel, l *Loop) { l.Stmts[0].E = Binary(OpAdd, LoadScalar(0), Const(1)) },
		func(k *Kernel, l *Loop) { l.Stmts[0].E = Cast(F32, Binary(OpAdd, Load(0), Const(1))) },
		func(k *Kernel, l *Loop) { l.Stmts[0].E = Cast(I32, Binary(OpAdd, Load(0), Const(1))) },
		func(k *Kernel, l *Loop) { l.Stmts[0].Kind, l.Stmts[0].Red = KReduce, RedMax },
		func(k *Kernel, l *Loop) { l.Dom = "[8]|[2]" },
		func(k *Kernel, l *Loop) { l.Ext = []int{2} },
		func(k *Kernel, l *Loop) { l.Ext = []int{1, 1} },
		func(k *Kernel, l *Loop) { l.ExtRef = 0 },
		func(k *Kernel, l *Loop) { l.Kind = LoopRandom },
		func(k *Kernel, l *Loop) { l.Seed = 3 },
		func(k *Kernel, l *Loop) { l.PayloadKey = 1 },
		func(k *Kernel, l *Loop) { l.Acc = true },
		func(k *Kernel, l *Loop) { l.Y = 1 },
		func(k *Kernel, l *Loop) { l.X = 1 },
		func(k *Kernel, l *Loop) { l.MatA = 1 },
		func(k *Kernel, l *Loop) { l.Stmts = append(l.Stmts, l.Stmts[0]) },
		func(k *Kernel, l *Loop) { k.SetDType(0, F32) },
		func(k *Kernel, l *Loop) { k.SetDType(1, F32) },
		func(k *Kernel, l *Loop) { l.Stmts[0].Kind, l.Stmts[0].Param = KEval, -1 },
		func(k *Kernel, l *Loop) { k.NParams = 3 },
	}
	seen := map[hash128.Sum]int{}
	for i, e := range edits {
		k := base(e)
		o.see(t, k)
		if j, dup := seen[k.FingerprintHash()]; dup {
			t.Fatalf("edits %d and %d share a hash", j, i)
		}
		seen[k.FingerprintHash()] = i
	}

	// A NaN immediate's payload reaches the results, so two payloads are
	// two kernels and one payload twice is one.
	nan := func(bits uint64) *Kernel {
		return base(func(k *Kernel, l *Loop) { l.Stmts[0].E = Const(math.Float64frombits(bits)) })
	}
	a, b, a2 := nan(0x7ff8000000000001), nan(0xfff8000000000000), nan(0x7ff8000000000001)
	o.see(t, a)
	o.see(t, b)
	o.see(t, a2)
	if a.FingerprintHash() == b.FingerprintHash() {
		t.Fatal("two NaN payloads share a kernel hash")
	}
	if a.FingerprintHash() != a2.FingerprintHash() {
		t.Fatal("one NaN payload hashes apart from itself")
	}
}

// TestFingerprintHashInvalidation: the cached hash is dropped by exactly
// the mutators that drop the cached string.
func TestFingerprintHashInvalidation(t *testing.T) {
	k := NewKernel("k", 1)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{4}, Stmts: []Stmt{{Kind: KStore, E: Const(1)}}})
	h0, fp0 := k.FingerprintHash(), k.Fingerprint()
	k.SetDType(0, F32)
	h1, fp1 := k.FingerprintHash(), k.Fingerprint()
	if h1 == h0 || fp1 == fp0 {
		t.Fatal("SetDType did not invalidate the cached fingerprints")
	}
	k.AddLoop(&Loop{Kind: LoopIota, Dom: "d", Ext: []int{4}})
	h2, fp2 := k.FingerprintHash(), k.Fingerprint()
	if h2 == h1 || fp2 == fp1 {
		t.Fatal("AddLoop did not invalidate the cached fingerprints")
	}
}
