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
