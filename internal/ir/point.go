// Package ir implements Diffuse's scale-free intermediate representation of
// distributed computation (paper §3): stores model distributed arrays,
// first-class structured partitions map processor points to sub-stores, and
// index tasks describe groups of parallel point tasks launched over
// rectangular domains. The representation of a program in this IR is
// independent of the number of processors it runs on; all analyses needed by
// the fusion engine (internal/core) are constant-time structural checks.
package ir

import (
	"fmt"
	"strings"
)

// Point is an n-dimensional integer coordinate. Points index both data
// (elements of stores) and compute (colors of partitions, points of launch
// domains).
type Point []int

// Rank returns the dimensionality of the point.
func (p Point) Rank() int { return len(p) }

// Clone returns a copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have the same rank and coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Add returns the element-wise sum p+q. Panics on rank mismatch.
func (p Point) Add(q Point) Point {
	mustSameRank(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Mul returns the element-wise product p*q. Panics on rank mismatch.
func (p Point) Mul(q Point) Point {
	mustSameRank(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] * q[i]
	}
	return r
}

// String implements fmt.Stringer.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

func mustSameRank(p, q Point) {
	if len(p) != len(q) {
		panic(fmt.Sprintf("ir: rank mismatch %d vs %d", len(p), len(q)))
	}
}

// Rect is a half-open n-dimensional rectangle [Lo, Hi). An empty rectangle
// has Hi[d] <= Lo[d] in some dimension d.
type Rect struct {
	Lo, Hi Point
}

// MakeRect constructs a rectangle from explicit bounds. Panics on rank
// mismatch.
func MakeRect(lo, hi Point) Rect {
	mustSameRank(lo, hi)
	return Rect{Lo: lo.Clone(), Hi: hi.Clone()}
}

// RectFromShape returns the rectangle [0, shape) of the given extents.
func RectFromShape(shape []int) Rect {
	n := len(shape)
	b := make(Point, 2*n) // one allocation for both corners
	copy(b[n:], shape)
	return Rect{Lo: b[:n:n], Hi: b[n:]}
}

// Rank returns the dimensionality of the rectangle.
func (r Rect) Rank() int { return len(r.Lo) }

// Mid returns the point halfway between Lo and Hi on every axis: an
// interior color the cost estimates sample as representative.
func (r Rect) Mid() Point {
	c := make(Point, r.Rank())
	for d := range c {
		c[d] = (r.Lo[d] + r.Hi[d]) / 2
	}
	return c
}

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool {
	for d := range r.Lo {
		if r.Hi[d] <= r.Lo[d] {
			return true
		}
	}
	return len(r.Lo) == 0
}

// Size returns the number of points in the rectangle (0 if empty).
func (r Rect) Size() int {
	if r.Empty() {
		return 0
	}
	n := 1
	for d := range r.Lo {
		n *= r.Hi[d] - r.Lo[d]
	}
	return n
}

// Extents returns the side lengths of the rectangle, clamped at zero.
func (r Rect) Extents() []int {
	e := make([]int, r.Rank())
	for d := range e {
		if v := r.Hi[d] - r.Lo[d]; v > 0 {
			e[d] = v
		}
	}
	return e
}

// Equal reports whether r and s are the same rectangle.
func (r Rect) Equal(s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// Contains reports whether p lies inside the rectangle.
func (r Rect) Contains(p Point) bool {
	if len(p) != r.Rank() {
		return false
	}
	for d := range p {
		if p[d] < r.Lo[d] || p[d] >= r.Hi[d] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s is entirely inside r. An empty s is
// contained in everything of the same rank.
func (r Rect) ContainsRect(s Rect) bool {
	if r.Rank() != s.Rank() {
		return false
	}
	if s.Empty() {
		return true
	}
	for d := range r.Lo {
		if s.Lo[d] < r.Lo[d] || s.Hi[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	mustSameRank(r.Lo, s.Lo)
	lo := make(Point, r.Rank())
	hi := make(Point, r.Rank())
	for d := range lo {
		lo[d] = max(r.Lo[d], s.Lo[d])
		hi[d] = min(r.Hi[d], s.Hi[d])
	}
	return Rect{Lo: lo, Hi: hi}
}

// Overlaps reports whether r and s share at least one point.
func (r Rect) Overlaps(s Rect) bool {
	if r.Rank() != s.Rank() {
		return false
	}
	return !r.Intersect(s).Empty()
}

// Each calls fn for every point of the rectangle in row-major order. It is
// intended for small rectangles (color spaces, launch domains) and tests;
// the fusion analysis itself never enumerates points.
func (r Rect) Each(fn func(Point)) {
	if r.Empty() {
		return
	}
	p := r.Lo.Clone()
	for {
		fn(p.Clone())
		d := r.Rank() - 1
		for ; d >= 0; d-- {
			p[d]++
			if p[d] < r.Hi[d] {
				break
			}
			p[d] = r.Lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// Points returns all points of the rectangle in row-major order.
func (r Rect) Points() []Point {
	pts := make([]Point, 0, r.Size())
	r.Each(func(p Point) { pts = append(pts, p) })
	return pts
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s,%s)", r.Lo, r.Hi)
}
