package kir

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestDecodeKernelRejects: two bodies that parse field by field and still
// are not kernels, both found by the FuzzDecodeStream kernel leg as hangs
// in Fingerprint rather than as decode errors. A parameter count the dtype
// bytes do not back sends every "for p < NParams" loop off the end; a node
// table that shares aggressively describes 2^n nodes to any walk that does
// not remember shared nodes, which is how the fingerprints walk.
func TestDecodeKernelRejects(t *testing.T) {
	store := func(e *Expr) *Kernel {
		k := NewKernel("k", 2)
		k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 1,
			Stmts: []Stmt{{Kind: KStore, Param: 1, E: e}}})
		return k
	}
	shared := func(depth int) *Expr {
		e := Load(0)
		for i := 0; i < depth; i++ {
			e = Binary(OpAdd, e, e)
		}
		return e
	}

	unbacked := EncodeKernel(store(Load(0)))
	// The count follows the version and the name "k" (length, byte).
	binary.LittleEndian.PutUint64(unbacked[2+8+1:], 1<<40)
	if _, err := DecodeKernel(unbacked); err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("a parameter count without dtypes decoded: %v", err)
	}
	if _, err := DecodeKernel(EncodeKernel(store(shared(64)))); err == nil || !strings.Contains(err.Error(), "walked unshared") {
		t.Errorf("a 2^64-node expression decoded: %v", err)
	}
	// Sharing below the cap is what the codec exists to keep.
	k, err := DecodeKernel(EncodeKernel(store(shared(10))))
	if err != nil {
		t.Fatalf("a 2^10-node expression: %v", err)
	}
	if e := k.Loops[0].Stmts[0].E; e.A != e.B {
		t.Error("decoded expression lost its shared operand")
	}
}
