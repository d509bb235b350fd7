package cunum

import (
	"encoding/binary"
	"math"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// A program issues the same few operations over the same few view shapes
// every iteration, and nothing an operation derives from its operands'
// shapes depends on their data. The context therefore interns those
// derivations — the tiling a view is launched through, and the kernel body
// of a registry op — and builds each one only on first sight. Interned
// objects are complete before they enter a table and are never written
// afterwards, so every task that references one shares it.
//
// The tables belong to the context and follow its single-goroutine rule.
// Each is bounded like legion's kernel cache: a program of unbounded
// shapes clears a full table wholesale and rebuilds what it uses next.
const maxInterned = 2048

// interns holds a context's tables.
type interns struct {
	views   map[viewKey]*viewTiling
	parts   map[partKey]*ir.TilingPart
	kernels map[string]*kir.Kernel
	key     []byte // scratch space opKey renders into
}

func newInterns() interns {
	return interns{
		views:   map[viewKey]*viewTiling{},
		parts:   map[partKey]*ir.TilingPart{},
		kernels: map[string]*kir.Kernel{},
	}
}

// viewKey is everything a view's launch-facing tiling depends on besides
// the context's grid and launch domains, which never change. The key's
// rank keeps a wider view from matching a truncated one, and gridFor
// rejects such a view on the miss, so none enters a table.
type viewKey struct {
	rank                  int
	shape, offset, stride [2]int
}

func keyOfView(a *Array) viewKey {
	k := viewKey{rank: a.Rank()}
	copy(k.shape[:], a.shape)
	copy(k.offset[:], a.offset)
	copy(k.stride[:], a.stride)
	return k
}

// partKey keys the tilings of the linear-algebra sites, which pick their
// own tile, projection and (1-D) launch domain instead of the view's.
type partKey struct {
	view   viewKey
	tile   [2]int
	proj   *ir.Projection
	colors int // extent of the launch domain [0, colors)
}

// tilingOf returns the shared launch-facing description of a view,
// building it on the first request for the view's (shape, offset,
// stride).
func (c *Context) tilingOf(a *Array) *viewTiling {
	key := keyOfView(a)
	if vt, ok := c.in.views[key]; ok {
		return vt
	}
	grid := c.gridFor(a.Rank())
	tile := make([]int, a.Rank())
	for d := range tile {
		tile[d] = ceilDiv(a.shape[d], grid[d])
	}
	// The signature reads "[shape]|[tile]" as fmt's %v would print the two
	// slices.
	var buf [64]byte
	dom := append(appendInts(buf[:0], a.shape), '|')
	vt := &viewTiling{
		part: ir.NewTiling(c.launchFor(a.Rank()), a.shape, tile, a.offset, a.stride, nil),
		dom:  string(appendInts(dom, tile)),
		tile: tile,
	}
	if len(c.in.views) >= maxInterned {
		clear(c.in.views)
	}
	c.in.views[key] = vt
	return vt
}

// tilingOver returns the shared tiling of view a with the given tile and
// projection over the 1-D launch domain [0, colors).
func (c *Context) tilingOver(a *Array, tile []int, proj *ir.Projection, colors int) *ir.TilingPart {
	key := partKey{view: keyOfView(a), proj: proj, colors: colors}
	copy(key.tile[:], tile)
	if p, ok := c.in.parts[key]; ok {
		return p
	}
	launch := c.launch1
	if colors != c.procs {
		launch = ir.MakeRect(ir.Point{0}, ir.Point{colors})
	}
	p := ir.NewTiling(launch, a.shape, tile, a.offset, a.stride, proj)
	if len(c.in.parts) >= maxInterned {
		clear(c.in.parts)
	}
	c.in.parts[key] = p
	return p
}

// Kernel-key kinds: the first byte of every opKey.
const (
	keyMap    = 'm'
	keyReduce = 'r'
)

// opKey renders into the context's scratch buffer everything a registry
// op's kernel depends on: the kind (map, or reduction with its combiner),
// the op name, the constants' bits (so 0 and -0, and two NaN payloads,
// stay apart), each operand's dtype and scalar/tiled binding, the
// destination's dtype and binding, and the domain signature of the loop.
// The op's builder is a pure function of its loads and constants, so
// nothing else reaches the body. The slice is valid until the next call.
func (c *Context) opKey(kind byte, red kir.RedOp, name string, consts []float64, ins []*Array, out *Array, dom string) []byte {
	b := append(c.in.key[:0], kind, byte(red))
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, uint64(len(consts)))
	for _, v := range consts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.AppendUvarint(b, uint64(len(ins)))
	for _, in := range ins {
		b = append(b, byte(in.st().DType()), binding(in))
	}
	b = append(b, byte(out.st().DType()), binding(out))
	b = append(b, dom...)
	c.in.key = b
	return b
}

// binding is an operand's access form in an element-wise loop: a
// shape-[1] scalar broadcasts (LoadScalar), anything else is tiled.
func binding(a *Array) byte {
	if a.IsScalar() {
		return 's'
	}
	return 't'
}

// kernel returns the context's kernel for key, calling build on a miss.
// The built kernel is finished here — parameter dtypes stamped from args,
// structural hash and cast marker computed — before it is stored, so the
// submission layer finds nothing left to write.
func (c *Context) kernel(key []byte, args []ir.Arg, build func() *kir.Kernel) *kir.Kernel {
	if k, ok := c.in.kernels[string(key)]; ok {
		return k
	}
	k := build()
	for i, a := range args {
		k.SetDType(i, a.Store.DType())
	}
	k.FingerprintHash()
	k.HasCast()
	if len(c.in.kernels) >= maxInterned {
		clear(c.in.kernels)
	}
	c.in.kernels[string(key)] = k
	return k
}
