package ir

import (
	"testing"
)

func pt(v ...int) Point { return Point(v) }

func TestRectBasics(t *testing.T) {
	r := MakeRect(pt(0, 0), pt(4, 4))
	if r.Size() != 16 {
		t.Fatalf("size = %d, want 16", r.Size())
	}
	if r.Empty() {
		t.Fatal("rect should not be empty")
	}
	if !r.Contains(pt(3, 3)) || r.Contains(pt(4, 0)) {
		t.Fatal("contains wrong")
	}
	s := MakeRect(pt(2, 2), pt(6, 6))
	i := r.Intersect(s)
	if !i.Equal(MakeRect(pt(2, 2), pt(4, 4))) {
		t.Fatalf("intersect = %v", i)
	}
	if !r.Overlaps(s) {
		t.Fatal("overlap expected")
	}
	e := MakeRect(pt(4, 0), pt(4, 4))
	if !e.Empty() || e.Size() != 0 {
		t.Fatal("empty rect misdetected")
	}
}

func TestRectEach(t *testing.T) {
	r := MakeRect(pt(1, 1), pt(3, 4))
	var got []Point
	r.Each(func(p Point) { got = append(got, p) })
	if len(got) != r.Size() {
		t.Fatalf("Each visited %d points, want %d", len(got), r.Size())
	}
	if !got[0].Equal(pt(1, 1)) || !got[len(got)-1].Equal(pt(2, 3)) {
		t.Fatalf("Each order wrong: first %v last %v", got[0], got[len(got)-1])
	}
}

func TestTilingSubRects(t *testing.T) {
	// Fig. 3a: 2x2 tiling of a 4x4 store over a 2x2 color space.
	parent := MakeRect(pt(0, 0), pt(4, 4))
	p := NewTiling(MakeRect(pt(0, 0), pt(2, 2)), []int{4, 4}, []int{2, 2}, []int{0, 0}, nil, nil)
	got := p.SubRect(pt(1, 1), parent)
	if !got.Equal(MakeRect(pt(2, 2), pt(4, 4))) {
		t.Fatalf("subrect = %v", got)
	}
	if !p.Covers([]int{4, 4}) {
		t.Fatal("full tiling should cover")
	}

	// Fig. 3b: 1x4 row tiling over 4x1 colors.
	rows := NewTiling(MakeRect(pt(0, 0), pt(4, 1)), []int{4, 4}, []int{1, 4}, []int{0, 0}, nil, nil)
	got = rows.SubRect(pt(2, 0), parent)
	if !got.Equal(MakeRect(pt(2, 0), pt(3, 4))) {
		t.Fatalf("row subrect = %v", got)
	}

	// Fig. 3c: offset 1x1 tiling.
	off := NewTiling(MakeRect(pt(0, 0), pt(2, 2)), []int{2, 2}, []int{1, 1}, []int{1, 1}, nil, nil)
	got = off.SubRect(pt(0, 0), parent)
	if !got.Equal(MakeRect(pt(1, 1), pt(2, 2))) {
		t.Fatalf("offset subrect = %v", got)
	}
	if off.Covers([]int{4, 4}) {
		t.Fatal("offset view must not cover")
	}
}

func TestTilingProjection(t *testing.T) {
	// Fig. 3d: a size-4 vector tiled over a 2-D color space by a
	// projection dropping the second coordinate: partially aliased.
	parent := MakeRect(pt(0), pt(4))
	proj := NewProjection("drop2", func(p Point) Point { return Point{p[0]} })
	part := NewTiling(MakeRect(pt(0, 0), pt(2, 2)), []int{4}, []int{2}, []int{0}, nil, proj)
	a := part.SubRect(pt(0, 0), parent)
	b := part.SubRect(pt(0, 1), parent)
	if !a.Equal(b) {
		t.Fatalf("aliased colors should map to the same sub-store: %v vs %v", a, b)
	}
	c := part.SubRect(pt(1, 0), parent)
	if a.Overlaps(c) {
		t.Fatal("different projected colors must not overlap here")
	}
}

func TestTilingClipping(t *testing.T) {
	// 10 elements over 4 procs: tile 3, last tile clipped to 1.
	parent := MakeRect(pt(0), pt(10))
	p := NewTiling(MakeRect(pt(0), pt(4)), []int{10}, []int{3}, []int{0}, nil, nil)
	ext := p.LocalExtents(pt(3), []int{10})
	if ext[0] != 1 {
		t.Fatalf("clipped extent = %d, want 1", ext[0])
	}
	r := p.SubRect(pt(3), parent)
	if !r.Equal(MakeRect(pt(9), pt(10))) {
		t.Fatalf("clipped subrect = %v", r)
	}
	if !p.Covers([]int{10}) {
		t.Fatal("clipped tiling still covers")
	}
}

func TestStridedTiling(t *testing.T) {
	// Every-2nd-element view of a size-16 store (multigrid injection).
	parent := MakeRect(pt(0), pt(16))
	p := NewTiling(MakeRect(pt(0), pt(2)), []int{8}, []int{4}, []int{0}, []int{2}, nil)
	r := p.SubRect(pt(1), parent)
	// view elements 4..7 -> parent 8,10,12,14; bounding box [8,15).
	if !r.Equal(MakeRect(pt(8), pt(15))) {
		t.Fatalf("strided subrect = %v", r)
	}
	if p.Covers([]int{16}) {
		t.Fatal("strided view cannot cover")
	}
}

func TestPartitionEquality(t *testing.T) {
	colors := MakeRect(pt(0), pt(4))
	a := NewTiling(colors, []int{16}, []int{4}, []int{0}, nil, nil)
	b := NewTiling(colors, []int{16}, []int{4}, []int{0}, nil, nil)
	c := NewTiling(colors, []int{16}, []int{4}, []int{1}, nil, nil)
	if !a.Equal(b) {
		t.Fatal("identical tilings must compare equal")
	}
	if a.Equal(c) {
		t.Fatal("offset tilings must differ")
	}
	n := ReplicateOver(colors)
	if n.Equal(a) || a.Equal(n) {
		t.Fatal("kinds differ")
	}
	if !n.Equal(ReplicateOver(colors)) {
		t.Fatal("none partitions over same colors equal")
	}
}

func TestStoreRefcounts(t *testing.T) {
	var f Factory
	s := f.NewStore("x", []int{8})
	if !s.AppLive() {
		t.Fatal("fresh store should be app-live")
	}
	s.RetainRuntime()
	if s.ReleaseApp() {
		t.Fatal("no app refs should remain")
	}
	if s.Dead() {
		t.Fatal("runtime ref keeps store alive")
	}
	s.ReleaseRuntime()
	if !s.Dead() {
		t.Fatal("store should be dead")
	}
}

func TestStoreStrides(t *testing.T) {
	var f Factory
	s := f.NewStore("m", []int{3, 4, 5})
	st := s.Strides()
	if st[0] != 20 || st[1] != 5 || st[2] != 1 {
		t.Fatalf("strides = %v", st)
	}
	if s.Size() != 60 {
		t.Fatalf("size = %d", s.Size())
	}
}

// canonTask builds a task with the given store args for canonicalization
// tests (Fig. 7).
func canonTask(name string, launch Rect, args ...Arg) *Task {
	return &Task{Name: name, Launch: launch, Args: args}
}

func TestCanonicalizeIsomorphism(t *testing.T) {
	var f Factory
	launch := MakeRect(pt(0), pt(4))
	part := func() Partition {
		return NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	}
	mk := func(s1, s2, s3 *Store, odd bool) []*Task {
		t3arg1 := Arg{Store: s1, Part: part(), Priv: Read}
		if odd {
			t3arg1 = Arg{Store: s3, Part: part(), Priv: Read}
		}
		return []*Task{
			canonTask("T1", launch, Arg{Store: s1, Part: part(), Priv: Read}, Arg{Store: s2, Part: part(), Priv: Write}),
			canonTask("T2", launch, Arg{Store: s2, Part: part(), Priv: Read}, Arg{Store: s1, Part: part(), Priv: Write}),
			canonTask("T3", launch, t3arg1, Arg{Store: s3, Part: part(), Priv: Write}),
			canonTask("T4", launch, Arg{Store: s3, Part: part(), Priv: Read}, Arg{Store: s1, Part: part(), Priv: Write}),
		}
	}
	s1 := f.NewStore("s1", []int{16})
	s2 := f.NewStore("s2", []int{16})
	s3 := f.NewStore("s3", []int{16})
	s5 := f.NewStore("s5", []int{16})
	s6 := f.NewStore("s6", []int{16})
	s7 := f.NewStore("s7", []int{16})

	a := Canonicalize(mk(s1, s2, s3, false), nil)
	b := Canonicalize(mk(s5, s6, s7, false), nil)
	cdiff := Canonicalize(mk(s5, s6, s7, true), nil)
	if a != b {
		t.Fatalf("isomorphic streams must canonicalize equal:\n%s\nvs\n%s", a, b)
	}
	if a == cdiff {
		t.Fatal("differing store pattern must change the canonical form")
	}
}
