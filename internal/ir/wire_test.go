package ir_test

// Property test for the distributed control-stream codec: every task the
// full internal/apps suite emits — all element types, sharded runtimes,
// fused kernels — must survive EncodeTask/DecodeTask bit-identically, because the distributed runtime's determinism contract
// (ranks=N reproduces Shards=N exactly) rests on every rank decoding the
// same stream the parent encoded. The test is external (package ir_test)
// so it can drive the real library stack on top of the ir package.

import (
	"bytes"
	"fmt"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/hash128"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// captureSuiteTasks runs every workload of the apps suite on a sharded
// runtime and returns each emitted task alongside the shard
// count it was stamped under.
func captureSuiteTasks(t *testing.T, shards int) []*ir.Task {
	t.Helper()
	cfg := core.DefaultConfig(4)
	cfg.Shards = shards
	rt := core.New(cfg)
	ctx := cunum.NewContext(rt)

	var tasks []*ir.Task
	rt.Legion().Trace = func(tk *ir.Task) { tasks = append(tasks, tk) }

	iterates := []func(int){
		apps.NewBlackScholes(ctx, 512).Iterate,
		apps.NewJacobiTotal(ctx, 64).Iterate,
		apps.NewCFD(ctx, 18, 18).Iterate,
		apps.NewSWE(ctx, 18, 18, false).Iterate,
		apps.NewJacobiMRHS(ctx, 64, 3, cunum.F64).Iterate,
		apps.NewJacobiMRHS(ctx, 64, 3, cunum.F32).Iterate,
		apps.NewStencilChain(ctx, 256, 16, 4, apps.ChainUpwind, cunum.F64).Iterate,
		apps.NewStencilChain(ctx, 256, 16, 4, apps.ChainSymmetric, cunum.F32).Iterate,
	}
	{
		A := apps.BuildPoisson2D(ctx, 12)
		b := ctx.Ones(A.Rows())
		iterates = append(iterates, apps.NewCG(ctx, A, b, false).Iterate)
		iterates = append(iterates, apps.NewBiCGSTAB(ctx, A, b).Iterate)
	}
	{
		n := 16
		b := ctx.Ones(n * n)
		iterates = append(iterates, apps.NewGMG(ctx, n, 2, b).Iterate)
	}
	for _, it := range iterates {
		it(2)
		ctx.Flush()
	}
	rt.Legion().DrainShardGroup()
	if len(tasks) == 0 {
		t.Fatal("apps suite emitted no tasks")
	}
	return tasks
}

// TestTaskWireRoundTripAppsSuite: the full apps task stream round-trips
// through the codec — decoded tasks match field for field, and re-encoding
// a decoded task reproduces the producer's bytes exactly.
func TestTaskWireRoundTripAppsSuite(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tasks := captureSuiteTasks(t, shards)
			t.Logf("captured %d tasks", len(tasks))

			// The same lazy tables the dist parent and ranks keep: kernels
			// interned by ref (through the kernel body codec), stores
			// resolved by id.
			kernelRefs := map[*kir.Kernel]int64{}
			decodedKernels := map[int64]*kir.Kernel{}
			stores := map[ir.StoreID]*ir.Store{}

			for ti, orig := range tasks {
				ref := int64(-1)
				if orig.Kernel != nil {
					var ok bool
					if ref, ok = kernelRefs[orig.Kernel]; !ok {
						ref = int64(len(kernelRefs))
						kernelRefs[orig.Kernel] = ref
						dk, err := kir.DecodeKernel(kir.EncodeKernel(orig.Kernel))
						if err != nil {
							t.Fatalf("task %d (%s): kernel round-trip: %v", ti, orig.Name, err)
						}
						if got, want := dk.Fingerprint(), orig.Kernel.Fingerprint(); got != want {
							t.Fatalf("task %d (%s): decoded kernel fingerprint %q, want %q", ti, orig.Name, got, want)
						}
						decodedKernels[ref] = dk
					}
				}
				for _, a := range orig.Args {
					stores[a.Store.ID()] = a.Store
				}

				enc, err := ir.EncodeTask(orig, ref)
				if err != nil {
					t.Fatalf("task %d (%s): encode: %v", ti, orig.Name, err)
				}
				dec, err := ir.DecodeTask(enc,
					func(id ir.StoreID) (*ir.Store, error) {
						s, ok := stores[id]
						if !ok {
							return nil, fmt.Errorf("unknown store %d", id)
						}
						return s, nil
					},
					func(r int64, fp hash128.Sum) (*kir.Kernel, error) {
						k, ok := decodedKernels[r]
						if !ok {
							return nil, fmt.Errorf("unknown kernel ref %d", r)
						}
						if k.FingerprintHash() != fp {
							return nil, fmt.Errorf("kernel ref %d fingerprint mismatch", r)
						}
						return k, nil
					})
				if err != nil {
					t.Fatalf("task %d (%s): decode: %v", ti, orig.Name, err)
				}

				if dec.Name != orig.Name || dec.FusedFrom != orig.FusedFrom {
					t.Fatalf("task %d: header mismatch: got (%s, %d), want (%s, %d)",
						ti, dec.Name, dec.FusedFrom, orig.Name, orig.FusedFrom)
				}
				if len(dec.Args) != len(orig.Args) {
					t.Fatalf("task %d (%s): %d args, want %d", ti, orig.Name, len(dec.Args), len(orig.Args))
				}
				for i := range orig.Args {
					oa, da := &orig.Args[i], &dec.Args[i]
					if da.Store.ID() != oa.Store.ID() || da.Priv != oa.Priv || da.Red != oa.Red ||
						da.HaloBytes != oa.HaloBytes {
						t.Fatalf("task %d (%s) arg %d: decoded %+v, want %+v", ti, orig.Name, i, da, oa)
					}
				}

				// Re-encoding the decoded task must reproduce the original
				// bytes — the bit-identity property the rank side relies on.
				// Payloads never decode, so their presence flag (byte 2) is
				// the one legitimate difference.
				reenc, err := ir.EncodeTask(dec, ref)
				if err != nil {
					t.Fatalf("task %d (%s): re-encode: %v", ti, orig.Name, err)
				}
				norm := append([]byte(nil), enc...)
				norm[2] = reenc[2]
				if !bytes.Equal(norm, reenc) {
					t.Fatalf("task %d (%s): re-encoded bytes differ from original encoding", ti, orig.Name)
				}
			}
		})
	}
}

// TestTaskWireVersionMismatch: a stream stamped with a different codec
// version is rejected up front, not misparsed.
func TestTaskWireVersionMismatch(t *testing.T) {
	f := &ir.Factory{}
	s := f.NewStore("x", []int{8})
	task := &ir.Task{
		Name:   "t",
		Launch: ir.MakeRect(ir.Point{0}, ir.Point{1}),
		Args:   []ir.Arg{{Store: s, Part: ir.ReplicateOver(ir.MakeRect(ir.Point{0}, ir.Point{1})), Priv: ir.ReadWrite}},
	}
	enc, err := ir.EncodeTask(task, -1)
	if err != nil {
		t.Fatal(err)
	}
	enc[0], enc[1] = 0xFF, 0xFF // clobber the little-endian version word
	_, err = ir.DecodeTask(enc,
		func(ir.StoreID) (*ir.Store, error) { return s, nil },
		func(int64, hash128.Sum) (*kir.Kernel, error) { return nil, nil })
	if err == nil {
		t.Fatal("decode accepted a wire version it does not speak")
	}
	if want := "version"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention the wire version", err)
	}
}

// TestDecodeTaskRejects: the decoder returns an error, naming the task and
// the argument, for a privilege or reduction byte outside its enum, and
// for a kernel whose parameter count or dtypes disagree with the argument
// stores; the bytes it was given otherwise decode.
func TestDecodeTaskRejects(t *testing.T) {
	f := &ir.Factory{}
	x := f.NewStoreTyped("x", []int{8}, ir.F32)
	y := f.NewStoreTyped("y", []int{8}, ir.F64)
	launch := ir.MakeRect(ir.Point{0}, ir.Point{1})
	encode := func(priv ir.Privilege, red ir.ReduceOp) []byte {
		task := &ir.Task{Name: "t", Launch: launch, Args: []ir.Arg{
			{Store: x, Part: ir.ReplicateOver(launch), Priv: ir.Read},
			{Store: y, Part: ir.ReplicateOver(launch), Priv: priv, Red: red},
		}}
		enc, err := ir.EncodeTask(task, 0)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	// offset finds the one byte two encodings differ in.
	offset := func(a, b []byte) int {
		for i := range a {
			if a[i] != b[i] {
				return i
			}
		}
		t.Fatal("encodings do not differ")
		return -1
	}
	base := encode(ir.Reduce, ir.RedSum)
	privAt := offset(base, encode(ir.Write, ir.RedSum))
	redAt := offset(base, encode(ir.Reduce, ir.RedMax))
	kernel := func(dts ...ir.DType) *kir.Kernel {
		k := kir.NewKernel("k", len(dts))
		for p, dt := range dts {
			k.SetDType(p, dt)
		}
		return k
	}
	cases := []struct {
		name string
		at   int
		b    byte
		k    *kir.Kernel
		want string
	}{
		{"valid", -1, 0, kernel(ir.F32, ir.F64), ""},
		{"privilege 4", privAt, 4, kernel(ir.F32, ir.F64), "task t arg 1: privilege 4 is not one"},
		{"privilege 7", privAt, 7, kernel(ir.F32, ir.F64), "task t arg 1: privilege 7 is not one"},
		{"privilege 255", privAt, 255, kernel(ir.F32, ir.F64), "task t arg 1: privilege 255 is not one"},
		{"reduction op 4", redAt, 4, kernel(ir.F32, ir.F64), "task t arg 1: reduction op 4 is not one"},
		{"reduction op 200", redAt, 200, kernel(ir.F32, ir.F64), "task t arg 1: reduction op 200 is not one"},
		{"too few parameters", -1, 0, kernel(ir.F32), "task t: kernel k has 1 parameters for 2 arguments"},
		{"too many parameters", -1, 0, kernel(ir.F32, ir.F64, ir.F64), "task t: kernel k has 3 parameters for 2 arguments"},
		{"dtype", -1, 0, kernel(ir.F32, ir.I32), "task t arg 1: store of f64, kernel parameter of i32"},
	}
	for _, tc := range cases {
		enc := append([]byte(nil), base...)
		if tc.at >= 0 {
			enc[tc.at] = tc.b
		}
		_, err := ir.DecodeTask(enc,
			func(id ir.StoreID) (*ir.Store, error) {
				if id == x.ID() {
					return x, nil
				}
				return y, nil
			},
			func(int64, hash128.Sum) (*kir.Kernel, error) { return tc.k, nil })
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want))):
			t.Fatalf("%s: decode returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
