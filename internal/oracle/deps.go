package oracle

// This file implements the point-task dependence definitions of paper §4.1
// (Definitions 1–3). The fusion engine never calls these — materializing
// dependence maps scales with the number of processors — but they define
// the ground truth that the scale-free fusion constraints must be sound
// against, and the property-based test suite checks the constraints against
// them on randomized task windows. They are the fusion layer's oracle, as
// Backend is the executor's.

import "diffuse/internal/ir"

// PointDep reports whether point task t2^(p2) depends on point task
// t1^(p1), where t1 was issued before t2 (Definition 1). A dependence
// exists if some pair of sub-stores with the same parent intersects and the
// privilege combination is a true, anti, or reduction dependence.
func PointDep(t1 *ir.Task, p1 ir.Point, t2 *ir.Task, p2 ir.Point) bool {
	for _, a1 := range t1.Args {
		for _, a2 := range t2.Args {
			if a1.Store != a2.Store {
				continue
			}
			parent := a1.Store.Bounds()
			s1 := a1.Part.SubRect(p1, parent)
			s2 := a2.Part.SubRect(p2, parent)
			if !s1.Overlaps(s2) {
				continue
			}
			if argsConflict(a1, a2) {
				return true
			}
		}
	}
	return false
}

// argsConflict implements the privilege clauses of Definition 1 plus the
// "both read or both reduce with the same operator" exemption.
func argsConflict(a1, a2 ir.Arg) bool {
	// true-dep: W(T1) ∧ (R ∨ W ∨ Rd)(T2)
	if a1.Priv.Writes() && (a2.Priv.Reads() || a2.Priv.Writes() || a2.Priv.Reduces()) {
		return true
	}
	// anti-dep: R(T1) ∧ (W ∨ Rd)(T2)
	if a1.Priv.Reads() && (a2.Priv.Writes() || a2.Priv.Reduces()) {
		return true
	}
	// reduction-dep: Rd(T1) ∧ (R ∨ W)(T2); two reductions conflict only
	// when their operators differ.
	if a1.Priv.Reduces() {
		if a2.Priv.Reads() || a2.Priv.Writes() {
			return true
		}
		if a2.Priv.Reduces() && a1.Red != a2.Red {
			return true
		}
	}
	return false
}

// PointwiseFusible reports Definition 3 directly: T1 and T2 are fusible iff
// for all p, D(T1,T2)[p] ⊆ {p}, where D(T1,T2)[p] (Definition 2) is the set
// of points of T2 whose point task depends on T1^p. Used by tests to validate the scale-free
// constraints in internal/core.
func PointwiseFusible(t1, t2 *ir.Task) bool {
	if !t1.Launch.Equal(t2.Launch) {
		return false
	}
	ok := true
	t1.Launch.Each(func(p1 ir.Point) {
		if !ok {
			return
		}
		t2.Launch.Each(func(p2 ir.Point) {
			if !ok || p1.Equal(p2) {
				return
			}
			if PointDep(t1, p1, t2, p2) {
				ok = false
			}
		})
	})
	return ok
}
