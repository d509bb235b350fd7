package ir

// Versioned binary wire format for the distributed control stream
// (internal/dist). The parent serializes the canonical post-fusion task
// stream once and control-replicates it to every rank; each rank decodes
// the identical stream and re-derives the same sharded schedule, so the
// wire format is the distributed analogue of the canonical form in
// canonical.go — it must capture exactly the fields the scheduler can
// observe, deterministically, and nothing else.
//
// Encoding rules:
//   - the byte layer is internal/wire: integers are little-endian int64
//     (lengths, ids, coordinates), enums are single bytes, floats are
//     IEEE-754 bit patterns — encoding the same task twice yields identical
//     bytes, and re-encoding a decoded task reproduces them (the round-trip
//     property test keys on this);
//   - stores are referenced by StoreID: the decoder resolves them through
//     a caller-supplied table, which the dist layer fills from StoreNew
//     control messages (RestoreStore);
//   - kernels are referenced by a caller-managed table id plus the
//     kernel's 16-byte structural hash (kir.Kernel.FingerprintHash, the
//     key of the producer's kernel table): the rank interns one decoded
//     *kir.Kernel per id, preserving the pointer identity that drives plan
//     memoization and drain-on-kernel-reuse, and verifies the hash against
//     the interned kernel's (see internal/kir/wire.go for the kernel body
//     codec);
//   - projections are encoded by registry name ("id", "rows2d", ...);
//     their apply functions are closures, but every rank runs the same
//     binary, so a name resolves to the same function in every process;
//   - payloads (e.g. sparse CSR providers) do not cross the wire: only a
//     presence flag is encoded, and the dist parent rejects payload tasks
//     before serialization.

import (
	"fmt"

	"diffuse/internal/hash128"
	"diffuse/internal/kir"
	"diffuse/internal/wire"
)

// WireVersion is the task-stream codec version; DecodeTask rejects any
// other value.
const WireVersion uint16 = 2

const taskFlagPayload uint8 = 1 << 0

func putRect(w *wire.Writer, r Rect) {
	w.Ints(r.Lo)
	w.Ints(r.Hi)
}

func readRect(r *wire.Reader) Rect {
	lo := Point(r.Ints())
	hi := Point(r.Ints())
	return Rect{Lo: lo, Hi: hi}
}

func appendPartition(w *wire.Writer, p Partition) error {
	switch pt := p.(type) {
	case *NonePart:
		w.U8(uint8(KindNone))
		putRect(w, pt.Colors)
	case *TilingPart:
		w.U8(uint8(KindTiling))
		w.Ints(pt.View)
		w.Ints(pt.Tile)
		w.Ints(pt.Offset)
		w.Ints(pt.Stride)
		if ProjectionByName(pt.Proj.Name()) != pt.Proj {
			return fmt.Errorf("ir: projection %q is not the wire-registered singleton", pt.Proj.Name())
		}
		w.Str(pt.Proj.Name())
		putRect(w, pt.Colors)
	default:
		return fmt.Errorf("ir: cannot encode partition kind %T", p)
	}
	return nil
}

func readPartition(r *wire.Reader) Partition {
	switch k := PartKind(r.U8()); k {
	case KindNone:
		return ReplicateOver(readRect(r))
	case KindTiling:
		t := &TilingPart{
			View:   r.Ints(),
			Tile:   r.Ints(),
			Offset: r.Ints(),
			Stride: r.Ints(),
		}
		name := r.Str()
		t.Colors = readRect(r)
		if r.Err() != nil {
			return nil
		}
		if t.Proj = ProjectionByName(name); t.Proj == nil {
			r.Fail("ir: wire names unregistered projection %q", name)
			return nil
		}
		return t.seal()
	default:
		r.Fail("ir: unknown wire partition kind %d", k)
		return nil
	}
}

// EncodeTask serializes one task to the wire format. kernelRef is the
// caller-managed kernel-table id of t.Kernel (-1 for a nil kernel); the
// kernel body itself travels separately (kir.EncodeKernel), exactly once
// per distinct kernel. The task's payload, if any, is not encoded — only
// its presence is flagged.
func EncodeTask(t *Task, kernelRef int64) ([]byte, error) {
	w := &wire.Writer{}
	w.U16(WireVersion)
	var flags uint8
	if t.Payload != nil {
		flags |= taskFlagPayload
	}
	w.U8(flags)
	w.Str(t.Name)
	putRect(w, t.Launch)
	w.I64(int64(t.FusedFrom))
	w.I64(kernelRef)
	var fp hash128.Sum
	if t.Kernel != nil {
		fp = t.Kernel.FingerprintHash()
	}
	w.U64(fp[0])
	w.U64(fp[1])
	w.I64(int64(len(t.Args)))
	for i := range t.Args {
		a := &t.Args[i]
		if a.Store == nil {
			return nil, fmt.Errorf("ir: task %s arg %d has no store", t.Name, i)
		}
		w.I64(int64(a.Store.ID()))
		w.U8(uint8(a.Priv))
		w.U8(uint8(a.Red))
		w.F64(a.HaloBytes)
		if err := appendPartition(w, a.Part); err != nil {
			return nil, fmt.Errorf("ir: task %s arg %d: %w", t.Name, i, err)
		}
	}
	return w.B, nil
}

// DecodeTask parses a task from the wire format. Store references are
// resolved through stores; the kernel reference (with its fingerprint
// hash) is resolved through kernel, which should intern decoded kernels
// by ref so repeated references yield the same *kir.Kernel. The decoded
// task's Payload is always nil (see taskFlagPayload).
//
// It returns an error for a privilege or reduction byte outside its enum,
// and for a kernel whose parameter count or dtypes disagree with the
// argument stores: an executor runs the kernel's codegen program, lowered
// for those dtypes, on the stores' buffers without checking them again.
func DecodeTask(data []byte, stores func(StoreID) (*Store, error), kernel func(ref int64, fingerprint hash128.Sum) (*kir.Kernel, error)) (*Task, error) {
	r := wire.NewReader(data)
	if v := r.U16(); r.Err() == nil && v != WireVersion {
		return nil, fmt.Errorf("ir: task wire version %d, want %d", v, WireVersion)
	}
	r.U8() // flags: payload presence is informational; payloads never decode
	t := &Task{}
	t.Name = r.Str()
	t.Launch = readRect(r)
	t.FusedFrom = int(r.I64())
	kref := r.I64()
	fp := hash128.Sum{r.U64(), r.U64()}
	nargs := r.Count(28)
	for i := 0; i < nargs && r.Err() == nil; i++ {
		var a Arg
		sid := StoreID(r.I64())
		a.Priv = Privilege(r.U8())
		a.Red = ReduceOp(r.U8())
		a.HaloBytes = r.F64()
		a.Part = readPartition(r)
		if r.Err() != nil {
			break
		}
		if a.Priv > Reduce {
			return nil, fmt.Errorf("ir: task %s arg %d: privilege %d is not one", t.Name, i, a.Priv)
		}
		if a.Red > RedMin {
			return nil, fmt.Errorf("ir: task %s arg %d: reduction op %d is not one", t.Name, i, a.Red)
		}
		s, err := stores(sid)
		if err != nil {
			return nil, fmt.Errorf("ir: task %s arg %d: %w", t.Name, i, err)
		}
		a.Store = s
		t.Args = append(t.Args, a)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("ir: task %q: %w", t.Name, err)
	}
	if kref >= 0 {
		k, err := kernel(kref, fp)
		if err != nil {
			return nil, fmt.Errorf("ir: task %s: %w", t.Name, err)
		}
		if k != nil {
			if k.NParams != len(t.Args) {
				return nil, fmt.Errorf("ir: task %s: kernel %s has %d parameters for %d arguments", t.Name, k.Name, k.NParams, len(t.Args))
			}
			for i, a := range t.Args {
				if dt := a.Store.DType(); k.DTypeOf(i) != dt {
					return nil, fmt.Errorf("ir: task %s arg %d: store of %s, kernel parameter of %s", t.Name, i, dt, k.DTypeOf(i))
				}
			}
		}
		t.Kernel = k
	}
	return t, nil
}
