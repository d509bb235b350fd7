package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property suite over the partition algebra: the scale-free analyses lean
// on a handful of invariants (sub-stores stay inside parents, identity
// tilings partition disjointly and cover, LocalExtents agrees with
// SubRect), checked here on randomized partitions.

type partCase struct {
	part   Partition
	parent Rect
}

func randomTiling(rng *rand.Rand) partCase {
	rank := 1 + rng.Intn(2)
	shape := make([]int, rank)
	view := make([]int, rank)
	tile := make([]int, rank)
	off := make([]int, rank)
	stride := make([]int, rank)
	colorsLo := make(Point, rank)
	colorsHi := make(Point, rank)
	for d := 0; d < rank; d++ {
		shape[d] = 4 + rng.Intn(20)
		stride[d] = 1 + rng.Intn(2)
		off[d] = rng.Intn(3)
		maxView := (shape[d] - off[d] + stride[d] - 1) / stride[d]
		if maxView < 1 {
			maxView = 1
		}
		view[d] = 1 + rng.Intn(maxView)
		tile[d] = 1 + rng.Intn(view[d])
		colorsHi[d] = int((view[d] + tile[d] - 1) / tile[d])
		if extra := rng.Intn(2); extra == 1 {
			colorsHi[d]++ // over-provisioned color space: empty tiles
		}
	}
	return partCase{
		part:   NewTiling(Rect{Lo: colorsLo, Hi: colorsHi}, view, tile, off, stride, nil),
		parent: RectFromShape(shape),
	}
}

func TestSubRectInsideParent(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pc := randomTiling(rng)
		ok := true
		pc.part.ColorSpace().Each(func(c Point) {
			r := pc.part.SubRect(c, pc.parent)
			if !r.Empty() && !pc.parent.ContainsRect(r) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityTilesDisjoint(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pc := randomTiling(rng)
		colors := pc.part.ColorSpace().Points()
		for i := 0; i < len(colors); i++ {
			for j := i + 1; j < len(colors); j++ {
				a := pc.part.SubRect(colors[i], pc.parent)
				b := pc.part.SubRect(colors[j], pc.parent)
				if a.Overlaps(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalExtentsMatchSubRect(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pc := randomTiling(rng)
		tp := pc.part.(*TilingPart)
		ok := true
		pc.part.ColorSpace().Each(func(c Point) {
			ext := pc.part.LocalExtents(c, pc.parent.Extents())
			r := pc.part.SubRect(c, pc.parent)
			// The number of accessed elements per dim follows from the
			// bounding box and the stride.
			for d := range ext {
				span := r.Hi[d] - r.Lo[d]
				var fromBox int
				if span <= 0 {
					fromBox = 0
				} else {
					fromBox = (span-1)/tp.Stride[d] + 1
				}
				if ext[d] != fromBox {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoversImpliesUnionIsParent(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pc := randomTiling(rng)
		if !pc.part.Covers(pc.parent.Hi) {
			return true // nothing claimed
		}
		covered := 0
		pc.part.ColorSpace().Each(func(c Point) {
			covered += pc.part.SubRect(c, pc.parent).Size()
		})
		// Identity-projection tiles are disjoint, so sizes add up.
		return covered == pc.parent.Size()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualityIsFingerprintEquality(t *testing.T) {
	fn := func(s1, s2 int64) bool {
		a := randomTiling(rand.New(rand.NewSource(s1))).part
		b := randomTiling(rand.New(rand.NewSource(s2))).part
		return a.Equal(b) == (a.Fingerprint() == b.Fingerprint())
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalRenamingInvariance: the canonical form is invariant under
// store renaming (alpha-equivalence) and sensitive to structural change.
func TestCanonicalRenamingInvariance(t *testing.T) {
	launch := MakeRect(Point{0}, Point{4})
	part := func() Partition {
		return NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	}
	build := func(f *Factory, swapPriv bool) []*Task {
		s := make([]*Store, 4)
		for i := range s {
			s[i] = f.NewStore("s", []int{16})
		}
		priv := Read
		if swapPriv {
			priv = ReadWrite
		}
		return []*Task{
			{Name: "a", Launch: launch, Args: []Arg{{Store: s[0], Part: part(), Priv: priv}, {Store: s[1], Part: part(), Priv: Write}}},
			{Name: "b", Launch: launch, Args: []Arg{{Store: s[1], Part: part(), Priv: Read}, {Store: s[2], Part: part(), Priv: Write}}},
			{Name: "a", Launch: launch, Args: []Arg{{Store: s[2], Part: part(), Priv: Read}, {Store: s[3], Part: part(), Priv: Write}}},
		}
	}
	var f1, f2 Factory
	// Drain some IDs from f2 so the absolute store IDs differ.
	for i := 0; i < 17; i++ {
		f2.NewStore("pad", []int{1})
	}
	if Canonicalize(build(&f1, false), nil) != Canonicalize(build(&f2, false), nil) {
		t.Fatal("canonical form must be invariant under store renaming")
	}
	if Canonicalize(build(&f1, false), nil) == Canonicalize(build(&f1, true), nil) {
		t.Fatal("canonical form must be sensitive to privilege changes")
	}
	facts := func(s *Store) string { return "live" }
	deadFacts := func(s *Store) string { return "dead" }
	if Canonicalize(build(&f1, false), facts) == Canonicalize(build(&f1, false), deadFacts) {
		t.Fatal("canonical form must include caller facts")
	}
}

// TestPrivilegePredicates pins the R/W/Rd helper semantics.
func TestPrivilegePredicates(t *testing.T) {
	cases := []struct {
		p       Privilege
		r, w, d bool
	}{
		{Read, true, false, false},
		{Write, false, true, false},
		{ReadWrite, true, true, false},
		{Reduce, false, false, true},
	}
	for _, c := range cases {
		if c.p.Reads() != c.r || c.p.Writes() != c.w || c.p.Reduces() != c.d {
			t.Fatalf("privilege %v predicates wrong", c.p)
		}
	}
}
