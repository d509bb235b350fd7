package ir_test

// Fuzz harness for the control-stream wire decoders. Every rank feeds
// parent-supplied bytes straight into DecodeTask and kir.DecodeKernel, so
// the decoders are a trust boundary: malformed or truncated input must
// come back as an error — never a panic, and never an allocation sized by
// an attacker-controlled count rather than the input length
// (wire.Reader.Count caps every count against the bytes actually
// present). The committed seed corpus under
// testdata/fuzz/FuzzDecodeStream starts the exploration from valid
// encodings plus canonical corruptions of them.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"diffuse/internal/hash128"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

func FuzzDecodeStream(f *testing.F) {
	// Seeds: a realistic task encoding plus edge shapes. The corpus files
	// add valid encodings with tiling partitions and corrupted variants.
	factory := &ir.Factory{}
	store := factory.NewStore("s", []int{16})
	task := &ir.Task{
		Name:   "seed",
		Launch: ir.MakeRect(ir.Point{0}, ir.Point{4}),
		Args: []ir.Arg{{
			Store: store,
			Part:  ir.ReplicateOver(ir.MakeRect(ir.Point{0}, ir.Point{4})),
			Priv:  ir.ReadWrite,
		}},
	}
	if enc, err := ir.EncodeTask(task, -1); err == nil {
		f.Add(enc)
		f.Add(enc[:len(enc)/2]) // truncated mid-structure
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0}) // version ok, flags, then nothing
	kern := kir.NewKernel("seed", 2)
	kern.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 1,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Load(0)}}})
	f.Add(kir.EncodeKernel(kern))

	resolveStore := func(ir.StoreID) (*ir.Store, error) { return store, nil }
	resolveKernel := func(int64, hash128.Sum) (*kir.Kernel, error) { return nil, nil }

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoders must return an error or a well-formed value; the
		// fuzzer itself catches panics and runaway allocation.
		dec, err := ir.DecodeTask(data, resolveStore, resolveKernel)
		if err == nil {
			// A successfully decoded task must survive the round trip the
			// distributed runtime depends on: re-encoding cannot fail, and
			// the re-encoded bytes must decode again.
			reenc, err := ir.EncodeTask(dec, -1)
			if err != nil {
				t.Fatalf("decoded task does not re-encode: %v", err)
			}
			if _, err := ir.DecodeTask(reenc, resolveStore, resolveKernel); err != nil {
				t.Fatalf("re-encoded task does not decode: %v", err)
			}
		}

		// The kernel body codec reads the same bytes: an error, or a
		// kernel that re-encodes, decodes again and is still the same
		// kernel to the memo key and the plan cache.
		if k, err := kir.DecodeKernel(data); err == nil {
			k2, err := kir.DecodeKernel(kir.EncodeKernel(k))
			if err != nil {
				t.Fatalf("re-encoded kernel does not decode: %v", err)
			}
			if k.FingerprintHash() != k2.FingerprintHash() {
				t.Fatalf("kernel %q changed its fingerprint hash across the wire", k.Name)
			}
		}
	})
}

// TestDecodeStreamCorpusIsCurrent: the committed FuzzDecodeStream seeds
// are encodings at the current WireVersion, so each one reaches the part
// of the decoder it was written for instead of stopping at the version
// check — valid-tiled decodes, the corrupted variants fail past it. A
// version bump must regenerate them.
func TestDecodeStreamCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeStream")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := (&ir.Factory{}).NewStore("s", []int{16})
	for _, fe := range files {
		raw, err := os.ReadFile(filepath.Join(dir, fe.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, qerr := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || qerr != nil {
			t.Fatalf("%s: not a []byte corpus entry", fe.Name())
		}
		dec, err := ir.DecodeTask([]byte(data),
			func(ir.StoreID) (*ir.Store, error) { return store, nil },
			func(int64, hash128.Sum) (*kir.Kernel, error) { return nil, nil })
		switch {
		case fe.Name() == "valid-tiled":
			if err != nil || len(dec.Args) != 2 {
				t.Fatalf("%s: decoded %v, %v; want a two-argument task", fe.Name(), dec, err)
			}
		case err == nil:
			t.Fatalf("%s: a corrupted seed decoded", fe.Name())
		case strings.Contains(err.Error(), "wire version"):
			t.Fatalf("%s: stops at the version check: %v", fe.Name(), err)
		}
	}
}
