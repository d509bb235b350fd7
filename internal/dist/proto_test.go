package dist

// Tests for the control-message bodies: what a rank decodes straight off
// the parent's socket, and the parent off rank 0's.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/wire"
)

// storeNewBody builds a StoreNew body field by field, so the test can
// write values encodeStoreNew never would.
func storeNewBody(id int64, dt uint8, name string, shape ...int) []byte {
	var w wire.Writer
	w.I64(id)
	w.U8(dt)
	w.Str(name)
	w.Ints(shape)
	return w.B
}

// TestDecodeStoreNewRejects: a StoreNew body is where a rank learns a
// store's dtype and extents, which size every later allocation. An unknown
// dtype, a negative extent or trailing bytes each come back as an error
// naming the field; before, the first two were accepted and the rank
// panicked later inside kir.AllocBuffer.
func TestDecodeStoreNewRejects(t *testing.T) {
	good := storeNewBody(7, uint8(kir.F32), "x", 4, 3)
	s, err := decodeStoreNew(good)
	if err != nil || s.ID() != 7 || s.DType() != kir.F32 || s.Name() != "x" || s.Size() != 12 {
		t.Fatalf("valid body: %v, %v", s, err)
	}
	if !bytes.Equal(encodeStoreNew(s), good) {
		t.Fatal("encodeStoreNew does not reproduce the body it was decoded from")
	}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"unknown dtype", "unknown dtype 9", storeNewBody(7, 9, "x", 4)},
		{"negative extent", "negative extent -4 on axis 1", storeNewBody(7, 0, "x", 2, -4)},
		{"trailing bytes", "trailing bytes", append(storeNewBody(7, 0, "x", 4), 0)},
		{"truncated", "truncated", good[:12]},
		{"shape count beyond the body", "count 2 out of range", good[:len(good)-3]},
	} {
		if s, err := decodeStoreNew(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got store %v, error %v; want an error containing %q", tc.name, s, err, tc.want)
		}
	}
}

// TestStoreDataNativeWidth: a store-data body is the store id, a dtype
// byte and the elements at that dtype's width — an f32 store moves four
// bytes an element — and carries bit patterns, NaN payloads included.
func TestStoreDataNativeWidth(t *testing.T) {
	nan := math.Float32frombits(0x7fc0beef)
	body := encodeStoreData(5, kir.BufF32([]float32{1.5, nan, 3}))
	if len(body) != 8+1+3*4 {
		t.Fatalf("f32 body is %d bytes, want %d", len(body), 8+1+3*4)
	}
	id, data, err := decodeStoreData(body)
	if err != nil || id != 5 || data.DType() != kir.F32 || data.Len() != 3 {
		t.Fatalf("decode: store %d, %v x %d, %v", id, data.DType(), data.Len(), err)
	}
	if got := math.Float32bits(data.F32()[1]); got != 0x7fc0beef {
		t.Fatalf("NaN payload crossed as %#x", got)
	}
	for name, bad := range map[string][]byte{
		"ragged length": body[:len(body)-1],
		"unknown dtype": append(append([]byte(nil), body[:8]...), 3),
		"no dtype":      body[:8],
	} {
		if _, _, err := decodeStoreData(bad); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzControlBody feeds one byte string to every control-body decoder a
// rank (StoreNew, store data, ReadAt) or the parent (store data) runs on
// bytes from another process: each returns an error, or a value whose
// encoding is exactly the input — the bodies are canonical, so anything
// else means a decoder accepted bytes no encoder writes.
func FuzzControlBody(f *testing.F) {
	var fact ir.Factory
	f.Add(encodeStoreNew(fact.NewStoreTyped("seed", []int{4, 3}, kir.F32)))
	f.Add(encodeStoreData(3, kir.BufF64([]float64{1, math.NaN(), math.Inf(-1)})))
	f.Add(encodeStoreData(4, kir.BufF32([]float32{0.5, 2})))
	f.Add(encodeReadAt(9, 17))
	f.Add(idBody(2))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := decodeStoreNew(data); err == nil && !bytes.Equal(encodeStoreNew(s), data) {
			t.Fatalf("StoreNew %d (%s %v %v) does not re-encode to its body", s.ID(), s.Name(), s.DType(), s.Shape())
		}
		if id, buf, err := decodeStoreData(data); err == nil && !bytes.Equal(encodeStoreData(id, buf), data) {
			t.Fatalf("store %d data (%v x %d) does not re-encode to its body", id, buf.DType(), buf.Len())
		}
		if id, off, err := decodeReadAt(data); err == nil && !bytes.Equal(encodeReadAt(id, off), data) {
			t.Fatalf("ReadAt(%d, %d) does not re-encode to its body", id, off)
		}
		if v, err := readIDBody(data); err == nil && !bytes.Equal(idBody(v), data) {
			t.Fatalf("id body %d does not re-encode to its body", v)
		}
	})
}

// TestRankKernelVerifiesFingerprint: a task names its kernel by the ref
// the parent interned it under plus the kernel's structural hash. A rank
// resolves a matching task to the one *kir.Kernel it decoded for the ref,
// and rejects a task encoded against another kernel structure than the
// interned one.
func TestRankKernelVerifiesFingerprint(t *testing.T) {
	kernel := func(dt kir.DType) *kir.Kernel {
		k := kir.NewKernel("copy", 2)
		k.SetDType(0, dt)
		k.SetDType(1, dt)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 1,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Load(0)}}})
		return k
	}
	interned, err := kir.DecodeKernel(kir.EncodeKernel(kernel(kir.F64)))
	if err != nil {
		t.Fatal(err)
	}
	var f ir.Factory
	x, y := f.NewStore("x", []int{16}), f.NewStore("y", []int{16})
	rs := &rankState{
		stores:  map[ir.StoreID]*ir.Store{x.ID(): x, y.ID(): y},
		kernels: map[int64]*kir.Kernel{0: interned},
	}
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tp := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	decode := func(k *kir.Kernel, ref int64) (*ir.Task, error) {
		t.Helper()
		body, err := ir.EncodeTask(&ir.Task{Name: "copy", Launch: launch, Kernel: k, Args: []ir.Arg{
			{Store: x, Part: tp, Priv: ir.Read},
			{Store: y, Part: tp, Priv: ir.Write},
		}}, ref)
		if err != nil {
			t.Fatal(err)
		}
		return ir.DecodeTask(body, rs.store, rs.kernel)
	}

	if task, err := decode(kernel(kir.F64), 0); err != nil || task.Kernel != interned {
		t.Fatalf("matching kernel: task %v, error %v; want the interned kernel", task, err)
	}
	if _, err := decode(kernel(kir.F32), 0); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("kernel of another structure: error %v, want a fingerprint mismatch", err)
	}
	if _, err := decode(kernel(kir.F64), 1); err == nil || !strings.Contains(err.Error(), "unknown kernel 1") {
		t.Fatalf("uninterned ref: error %v, want an unknown kernel", err)
	}
}
