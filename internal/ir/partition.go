package ir

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"diffuse/internal/hash128"
)

// Projection applies a transformation to each point in a partition's color
// domain before the sub-store bounds are computed (paper §3.1, Fig. 3d).
// Projections have identity: two projections are considered equal iff their
// IDs are equal, which keeps the partition-aliasing check constant-time.
type Projection struct {
	id    int64
	name  string
	apply func(Point) Point
}

var projIDs atomic.Int64

// IdentityProj is the identity projection; it is its own singleton so that
// identity tilings compare equal structurally.
var IdentityProj = &Projection{id: 0, name: "id", apply: func(p Point) Point { return p }}

// projRegistry maps projection names to their process-local singletons so
// the wire codec can encode a projection by name: apply functions are Go
// closures and cannot cross a process boundary, but every rank process runs
// the same binary and registers the same projections at init time, so a
// name round-trips to the same function. First registration wins; encoding
// a projection whose name resolves to a different object fails at encode
// time (see wire.go).
var (
	projRegMu sync.Mutex
	projReg   = map[string]*Projection{"id": IdentityProj}
)

// NewProjection registers a new projection function with a fresh identity.
// The first projection created under each name becomes the wire-decodable
// singleton for that name.
func NewProjection(name string, fn func(Point) Point) *Projection {
	pr := &Projection{id: projIDs.Add(1), name: name, apply: fn}
	projRegMu.Lock()
	if _, ok := projReg[name]; !ok {
		projReg[name] = pr
	}
	projRegMu.Unlock()
	return pr
}

// ProjectionByName returns the registered singleton for a projection name,
// or nil if none was registered.
func ProjectionByName(name string) *Projection {
	projRegMu.Lock()
	defer projRegMu.Unlock()
	return projReg[name]
}

// Name returns the projection's registration name.
func (pr *Projection) Name() string { return pr.name }

// Apply maps a color-space point through the projection.
func (pr *Projection) Apply(p Point) Point { return pr.apply(p) }

// ID returns the projection's identity.
func (pr *Projection) ID() int64 { return pr.id }

// String implements fmt.Stringer.
func (pr *Projection) String() string { return fmt.Sprintf("proj#%d(%s)", pr.id, pr.name) }

// PartKind is the syntactic kind of a partition. The fusion analysis only
// needs constant-time inequality between partitions of the same kind;
// partitions of different kinds are conservatively assumed to alias
// (paper §4.2.1).
type PartKind int

const (
	// KindNone replicates the whole store at every color.
	KindNone PartKind = iota
	// KindTiling is an n-dimensional affine (optionally strided) tiling.
	KindTiling
)

// String implements fmt.Stringer.
func (k PartKind) String() string {
	switch k {
	case KindNone:
		return "None"
	case KindTiling:
		return "Tiling"
	default:
		return fmt.Sprintf("PartKind(%d)", int(k))
	}
}

// Partition maps points of a color space (the launch domain) to sub-stores
// of a parent store. Implementations must be scale-free: Equal and
// Fingerprint must not examine individual sub-stores.
type Partition interface {
	// Kind returns the syntactic kind of the partition.
	Kind() PartKind
	// ColorSpace returns the domain of the partition.
	ColorSpace() Rect
	// SubRect returns the bounding rectangle in parent coordinates of the
	// sub-store at the given color, clipped to the parent bounds. For
	// strided tilings the result is the bounding box of the accessed
	// elements.
	SubRect(color Point, parent Rect) Rect
	// LocalExtents returns the per-dimension number of view elements the
	// point task at the given color owns (the clipped tile), given the
	// parent store shape.
	LocalExtents(color Point, parentShape []int) []int
	// Covers reports whether the union of sub-stores covers every point of
	// a parent store of the given shape (used by temporary-store
	// elimination, Def. 4).
	Covers(shape []int) bool
	// Equal is the constant-time structural equality used for alias
	// checking. Partitions that are not Equal are assumed to alias.
	Equal(other Partition) bool
	// Fingerprint returns a canonical textual descriptor: the partition's
	// identity in Canonicalize and in the argument merging of a fusion
	// plan.
	Fingerprint() string
	// Hash is Fingerprint without the text — equal exactly when the
	// fingerprints are equal — cached at construction and folded into the
	// structural memo key (Task.Seal, paper §5.2).
	Hash() hash128.Sum
}

// NonePart replicates the parent store at every color: all points map to
// the entire store (paper §3.1). Reads through a NonePart model broadcast /
// replication; a write through a NonePart would alias across points and is
// rejected by the fusion constraints unless the launch domain has a single
// point.
type NonePart struct {
	Colors Rect

	hash   hash128.Sum // of Colors, set by ReplicateOver
	hashed bool
}

// ReplicateOver returns a None partition over the given color space.
func ReplicateOver(colors Rect) *NonePart {
	n := &NonePart{Colors: colors}
	n.hash, n.hashed = n.computeHash(), true
	return n
}

// Kind implements Partition.
func (n *NonePart) Kind() PartKind { return KindNone }

// ColorSpace implements Partition.
func (n *NonePart) ColorSpace() Rect { return n.Colors }

// SubRect implements Partition: every color maps to the whole parent.
func (n *NonePart) SubRect(_ Point, parent Rect) Rect { return parent }

// LocalExtents implements Partition: every color holds the whole store.
func (n *NonePart) LocalExtents(_ Point, parentShape []int) []int {
	return append([]int(nil), parentShape...)
}

// Covers implements Partition: replication trivially covers the parent.
func (n *NonePart) Covers([]int) bool { return true }

// Equal implements Partition.
func (n *NonePart) Equal(other Partition) bool {
	o, ok := other.(*NonePart)
	return ok && n.Colors.Equal(o.Colors)
}

// Fingerprint implements Partition.
func (n *NonePart) Fingerprint() string {
	return fmt.Sprintf("None%s", n.Colors)
}

// Hash implements Partition. A partition built as a literal instead of
// through ReplicateOver has no cached hash and pays for one per call.
func (n *NonePart) Hash() hash128.Sum {
	if n.hashed {
		return n.hash
	}
	return n.computeHash()
}

func (n *NonePart) computeHash() hash128.Sum {
	h := hash128.New(uint64(KindNone))
	hashRect(&h, n.Colors)
	return h.Sum()
}

// hashRect folds a rectangle as Rect.String prints it: both corners.
func hashRect(h *hash128.Hasher, r Rect) {
	h.Ints(r.Lo)
	h.Ints(r.Hi)
}

// String implements fmt.Stringer.
func (n *NonePart) String() string { return n.Fingerprint() }

// TilingPart is an n-dimensional affine tiling of a view of a store (paper
// §3.1, Fig. 3). A view selects View[d] elements starting at parent
// coordinate Offset[d] with element stride Stride[d]; the view is then
// tiled with tiles of Tile[d] view elements. The sub-store of color p
// covers view indices [proj(p)[d]*Tile[d], (proj(p)[d]+1)*Tile[d]) clipped
// to the view, i.e. parent coordinates
//
//	Offset[d] + Stride[d] * (proj(p)[d]*Tile[d] + i),  0 <= i < clipped tile
//
// With Offset = 0, Stride = 1 and View equal to the store shape this is
// exactly the formula of Fig. 3e; offsets express aliasing slice views
// (Fig. 3c), projections express replicated/aliased tilings (Fig. 3d), and
// strides generalize to the strided views needed by multigrid restriction.
type TilingPart struct {
	View   []int       // total view extents, in view elements
	Tile   []int       // tile extents, in view elements
	Offset []int       // parent coordinate of view element 0
	Stride []int       // parent-coordinate step between view elements (>=1)
	Proj   *Projection // color transformation, IdentityProj if nil
	Colors Rect        // color space (launch domain of the tasks using it)

	hash   hash128.Sum // of the six fields above, set by seal
	hashed bool
}

// NewTiling constructs a tiling partition. stride may be nil for unit
// stride; proj may be nil for identity.
func NewTiling(colors Rect, view, tile, offset, stride []int, proj *Projection) *TilingPart {
	if proj == nil {
		proj = IdentityProj
	}
	if stride == nil {
		stride = ones(len(tile))
	}
	if len(tile) != len(offset) || len(tile) != len(stride) || len(tile) != len(view) {
		panic("ir: tiling rank mismatch")
	}
	return (&TilingPart{
		View:   append([]int(nil), view...),
		Tile:   append([]int(nil), tile...),
		Offset: append([]int(nil), offset...),
		Stride: append([]int(nil), stride...),
		Proj:   proj,
		Colors: colors,
	}).seal()
}

// seal caches the hash of a fully built tiling; the fields must not change
// afterwards. NewTiling and the wire decoder end with it.
func (t *TilingPart) seal() *TilingPart {
	t.hash, t.hashed = t.computeHash(), true
	return t
}

// Hash implements Partition. A tiling built as a literal and never sealed
// pays for one hash per call.
func (t *TilingPart) Hash() hash128.Sum {
	if t.hashed {
		return t.hash
	}
	return t.computeHash()
}

func (t *TilingPart) computeHash() hash128.Sum {
	h := hash128.New(uint64(KindTiling))
	h.Ints(t.View)
	h.Ints(t.Tile)
	h.Ints(t.Offset)
	h.Ints(t.Stride)
	h.Word(uint64(t.Proj.id))
	hashRect(&h, t.Colors)
	return h.Sum()
}

func ones(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// Kind implements Partition.
func (t *TilingPart) Kind() PartKind { return KindTiling }

// ColorSpace implements Partition.
func (t *TilingPart) ColorSpace() Rect { return t.Colors }

// LocalExtents implements Partition: the tile at the color, clipped to the
// view bounds.
func (t *TilingPart) LocalExtents(color Point, _ []int) []int {
	c := t.Proj.Apply(color)
	ext := make([]int, len(t.Tile))
	for d := range t.Tile {
		e := t.View[d] - c[d]*t.Tile[d]
		if e > t.Tile[d] {
			e = t.Tile[d]
		}
		if e < 0 {
			e = 0
		}
		ext[d] = e
	}
	return ext
}

// SubRect implements Partition: the tight parent-coordinate bounding box
// of the view elements owned by the color, clipped to the parent.
func (t *TilingPart) SubRect(color Point, parent Rect) Rect {
	c := t.Proj.Apply(color)
	if len(c) != len(t.Tile) {
		panic(fmt.Sprintf("ir: projection produced rank %d, tiling rank %d", len(c), len(t.Tile)))
	}
	ext := t.LocalExtents(color, nil)
	lo := make(Point, len(t.Tile))
	hi := make(Point, len(t.Tile))
	for d := range t.Tile {
		first := c[d] * t.Tile[d] // first view element owned
		lo[d] = t.Offset[d] + first*t.Stride[d]
		hi[d] = lo[d] + maxInt((ext[d]-1)*t.Stride[d]+1, 0)
		if ext[d] == 0 {
			hi[d] = lo[d]
		}
	}
	return Rect{Lo: lo, Hi: hi}.Intersect(parent)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Covers implements Partition: the tiling covers the parent iff the view
// is the entire store (zero offset, unit stride, full extents), the
// projection is identity, and the color grid spans the view.
func (t *TilingPart) Covers(shape []int) bool {
	if t.Proj != IdentityProj || !unitStride(t.Stride) {
		return false
	}
	for d := range t.Tile {
		if t.Offset[d] != 0 {
			return false
		}
		if t.View[d] != shape[d] {
			return false
		}
		if t.Colors.Lo[d] != 0 {
			return false
		}
		if t.Colors.Hi[d]*t.Tile[d] < t.View[d] {
			return false
		}
	}
	return true
}

func unitStride(s []int) bool {
	for _, v := range s {
		if v != 1 {
			return false
		}
	}
	return true
}

// Equal implements Partition with a constant-time structural comparison:
// view, tile, offset, stride, projection identity and color space.
func (t *TilingPart) Equal(other Partition) bool {
	o, ok := other.(*TilingPart)
	if !ok {
		return false
	}
	return intsEqual(t.View, o.View) &&
		intsEqual(t.Tile, o.Tile) &&
		intsEqual(t.Offset, o.Offset) &&
		intsEqual(t.Stride, o.Stride) &&
		t.Proj.id == o.Proj.id &&
		t.Colors.Equal(o.Colors)
}

// Fingerprint implements Partition.
func (t *TilingPart) Fingerprint() string {
	var b strings.Builder
	b.WriteString("Tiling{v=")
	writeInts(&b, t.View)
	b.WriteString(",t=")
	writeInts(&b, t.Tile)
	b.WriteString(",o=")
	writeInts(&b, t.Offset)
	b.WriteString(",s=")
	writeInts(&b, t.Stride)
	fmt.Fprintf(&b, ",p=%d,c=%s}", t.Proj.id, t.Colors)
	return b.String()
}

// String implements fmt.Stringer.
func (t *TilingPart) String() string { return t.Fingerprint() }

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func writeInts(b *strings.Builder, v []int) {
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%d", x)
	}
	b.WriteByte(']')
}
