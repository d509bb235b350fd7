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
//   - all integers are little-endian int64 (lengths, ids, coordinates),
//     enums are single bytes, floats are IEEE-754 bit patterns — encoding
//     the same task twice yields identical bytes, and re-encoding a
//     decoded task reproduces them (the round-trip property test keys on
//     this);
//   - stores are referenced by StoreID: the decoder resolves them through
//     a caller-supplied table, which the dist layer fills from StoreNew
//     control messages (RestoreStore);
//   - kernels are referenced by a caller-managed table id plus the
//     kernel's fingerprint: the rank interns one decoded *kir.Kernel per
//     id, preserving the pointer identity that drives plan memoization
//     and drain-on-kernel-reuse, and verifies the fingerprint against the
//     producer's (see internal/kir/wire.go for the kernel body codec);
//   - projections are encoded by registry name ("id", "rows2d", ...);
//     their apply functions are closures, but every rank runs the same
//     binary, so a name resolves to the same function in every process;
//   - payloads (e.g. sparse CSR providers) do not cross the wire: only a
//     presence flag is encoded, and the dist parent rejects payload tasks
//     before serialization.

import (
	"encoding/binary"
	"fmt"
	"math"

	"diffuse/internal/kir"
)

// WireVersion is the task-stream codec version; DecodeTask rejects any
// other value.
const WireVersion uint16 = 1

const taskFlagPayload uint8 = 1 << 0

type wbuf struct{ b []byte }

func (w *wbuf) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wbuf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)  { w.u64(uint64(v)) }

func (w *wbuf) str(s string) {
	w.i64(int64(len(s)))
	w.b = append(w.b, s...)
}

func (w *wbuf) ints(vs []int) {
	w.i64(int64(len(vs)))
	for _, v := range vs {
		w.i64(int64(v))
	}
}

func (w *wbuf) point(p Point) { w.ints([]int(p)) }

func (w *wbuf) rect(r Rect) {
	w.point(r.Lo)
	w.point(r.Hi)
}

type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *rbuf) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.b) {
		r.fail("ir: wire truncated at offset %d (need %d bytes of %d)", r.off, n, len(r.b))
		return false
	}
	return true
}

func (r *rbuf) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *rbuf) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) i64() int64 { return int64(r.u64()) }

func (r *rbuf) count(min int) int {
	n := r.i64()
	if r.err != nil {
		return 0
	}
	if n < 0 || (min > 0 && n > int64(len(r.b)-r.off)/int64(min)) {
		r.fail("ir: wire count %d out of range at offset %d", n, r.off)
		return 0
	}
	return int(n)
}

func (r *rbuf) str() string {
	n := r.count(1)
	if !r.need(n) {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *rbuf) ints() []int {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(r.i64())
	}
	return vs
}

func (r *rbuf) point() Point { return Point(r.ints()) }

func (r *rbuf) rect() Rect {
	lo := r.point()
	hi := r.point()
	return Rect{Lo: lo, Hi: hi}
}

func appendPartition(w *wbuf, p Partition) error {
	switch pt := p.(type) {
	case *NonePart:
		w.u8(uint8(KindNone))
		w.rect(pt.Colors)
	case *TilingPart:
		w.u8(uint8(KindTiling))
		w.ints(pt.View)
		w.ints(pt.Tile)
		w.ints(pt.Offset)
		w.ints(pt.Stride)
		if ProjectionByName(pt.Proj.Name()) != pt.Proj {
			return fmt.Errorf("ir: projection %q is not the wire-registered singleton", pt.Proj.Name())
		}
		w.str(pt.Proj.Name())
		w.rect(pt.Colors)
	default:
		return fmt.Errorf("ir: cannot encode partition kind %T", p)
	}
	return nil
}

func readPartition(r *rbuf) Partition {
	switch k := PartKind(r.u8()); k {
	case KindNone:
		return ReplicateOver(r.rect())
	case KindTiling:
		t := &TilingPart{
			View:   r.ints(),
			Tile:   r.ints(),
			Offset: r.ints(),
			Stride: r.ints(),
		}
		name := r.str()
		t.Colors = r.rect()
		if r.err != nil {
			return nil
		}
		if t.Proj = ProjectionByName(name); t.Proj == nil {
			r.fail("ir: wire names unregistered projection %q", name)
			return nil
		}
		return t.seal()
	default:
		r.fail("ir: unknown wire partition kind %d", k)
		return nil
	}
}

// EncodeTask serializes one task to the wire format. kernelRef is the
// caller-managed kernel-table id of t.Kernel (-1 for a nil kernel); the
// kernel body itself travels separately (kir.EncodeKernel), exactly once
// per distinct kernel. The task's payload, if any, is not encoded — only
// its presence is flagged.
func EncodeTask(t *Task, kernelRef int64) ([]byte, error) {
	w := &wbuf{}
	w.u16(WireVersion)
	var flags uint8
	if t.Payload != nil {
		flags |= taskFlagPayload
	}
	w.u8(flags)
	w.str(t.Name)
	w.rect(t.Launch)
	w.i64(t.Seq)
	w.i64(int64(t.FusedFrom))
	w.i64(kernelRef)
	if t.Kernel != nil {
		w.str(t.Kernel.Fingerprint())
	} else {
		w.str("")
	}
	w.i64(int64(len(t.Args)))
	for i := range t.Args {
		a := &t.Args[i]
		if a.Store == nil {
			return nil, fmt.Errorf("ir: task %s arg %d has no store", t.Name, i)
		}
		w.i64(int64(a.Store.ID()))
		w.u8(uint8(a.Priv))
		w.u8(uint8(a.Red))
		w.u64(math.Float64bits(a.HaloBytes))
		w.i64(a.ShardGen)
		if err := appendPartition(w, a.Part); err != nil {
			return nil, fmt.Errorf("ir: task %s arg %d: %w", t.Name, i, err)
		}
	}
	return w.b, nil
}

// DecodeTask parses a task from the wire format. Store references are
// resolved through stores; the kernel reference (with its fingerprint) is
// resolved through kernel, which should intern decoded kernels by ref so
// repeated references yield the same *kir.Kernel. The decoded task's
// Payload is always nil (see taskFlagPayload).
func DecodeTask(data []byte, stores func(StoreID) (*Store, error), kernel func(ref int64, fingerprint string) (*kir.Kernel, error)) (*Task, error) {
	r := &rbuf{b: data}
	if v := r.u16(); r.err == nil && v != WireVersion {
		return nil, fmt.Errorf("ir: task wire version %d, want %d", v, WireVersion)
	}
	flags := r.u8()
	t := &Task{}
	t.Name = r.str()
	t.Launch = r.rect()
	t.Seq = r.i64()
	t.FusedFrom = int(r.i64())
	kref := r.i64()
	fp := r.str()
	nargs := r.count(28)
	for i := 0; i < nargs && r.err == nil; i++ {
		var a Arg
		sid := StoreID(r.i64())
		a.Priv = Privilege(r.u8())
		a.Red = ReduceOp(r.u8())
		a.HaloBytes = math.Float64frombits(r.u64())
		a.ShardGen = r.i64()
		a.Part = readPartition(r)
		if r.err != nil {
			break
		}
		s, err := stores(sid)
		if err != nil {
			return nil, fmt.Errorf("ir: task %s arg %d: %w", t.Name, i, err)
		}
		a.Store = s
		t.Args = append(t.Args, a)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("ir: %d trailing bytes after task %s", len(data)-r.off, t.Name)
	}
	if kref >= 0 {
		k, err := kernel(kref, fp)
		if err != nil {
			return nil, fmt.Errorf("ir: task %s: %w", t.Name, err)
		}
		t.Kernel = k
	}
	_ = flags // payload presence is informational; payloads never decode
	return t, nil
}

// AppendStageDep serializes one dependence record (used by tests and
// diagnostics; ranks re-derive StageDeps from the replicated stream, so
// they are not part of the control protocol itself).
func AppendStageDep(buf []byte, d StageDep) []byte {
	w := &wbuf{b: buf}
	w.i64(int64(d.Prod))
	w.i64(int64(d.Cons))
	w.i64(int64(d.Store))
	w.u8(uint8(d.Kind))
	return w.b
}

// DecodeStageDep parses one dependence record, returning the remaining
// bytes.
func DecodeStageDep(data []byte) (StageDep, []byte, error) {
	r := &rbuf{b: data}
	var d StageDep
	d.Prod = int(r.i64())
	d.Cons = int(r.i64())
	d.Store = StoreID(r.i64())
	d.Kind = DepKind(r.u8())
	if r.err != nil {
		return StageDep{}, nil, r.err
	}
	return d, data[r.off:], nil
}

// AppendSpan serializes one flat span.
func AppendSpan(buf []byte, s Span) []byte {
	w := &wbuf{b: buf}
	w.i64(int64(s.Lo))
	w.i64(int64(s.Hi))
	return w.b
}

// DecodeSpan parses one flat span, returning the remaining bytes.
func DecodeSpan(data []byte) (Span, []byte, error) {
	r := &rbuf{b: data}
	var s Span
	s.Lo = int(r.i64())
	s.Hi = int(r.i64())
	if r.err != nil {
		return Span{}, nil, r.err
	}
	return s, data[r.off:], nil
}
