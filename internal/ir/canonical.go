package ir

import (
	"fmt"
	"strings"
)

// This file implements the canonical, De-Bruijn-index-like representation
// of task streams from paper §5.2 (Fig. 7). Two task windows are isomorphic
// — and may share memoized fusion analyses and compiled kernels — exactly
// when their canonical forms are equal: store identities are replaced by
// the index of the store's first appearance in the window, while every
// structural property that the analysis depends on (task names, launch
// domains, privileges, partition fingerprints, store shapes, and the
// liveness bits consumed by temporary-store elimination) is kept verbatim.
//
// The string is the specification, not the product path: the fusion layer
// keys its memo table with the structural hash of key.go, which folds the
// same inputs without rendering them, and Canonicalize is the oracle that
// key is tested against (and what the benchmark's ir probe times).

// StoreFacts lets the caller contribute analysis-relevant per-store facts
// (e.g. "application still holds a reference") into the canonical form so
// that memoized decisions are only replayed in equivalent liveness states.
type StoreFacts func(s *Store) string

// Canonicalize renders the window of tasks into its canonical string form.
func Canonicalize(window []*Task, facts StoreFacts) string {
	var b strings.Builder
	idx := make(map[StoreID]int)
	for _, t := range window {
		b.WriteString(t.Name)
		b.WriteString(t.Launch.String())
		// The kernel body (including immediate constants) is part of the
		// isomorphism: replaying a memoized plan substitutes the compiled
		// fused kernel, so streams that differ only in an immediate (e.g.
		// fill(0) vs fill(1)) must not share an analysis.
		b.WriteByte('<')
		b.WriteString(t.Kernel.Fingerprint())
		b.WriteByte('>')
		b.WriteByte('[')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(';')
			}
			di, seen := idx[a.Store.ID()]
			if !seen {
				di = len(idx)
				idx[a.Store.ID()] = di
				// First appearance: record shape, dtype and caller facts
				// once (dtype also appears in the kernel fingerprint
				// above, but opaque-kernel tasks must separate too).
				fmt.Fprintf(&b, "%d:new%v%s", di, a.Store.Shape(), a.Store.DType())
				if facts != nil {
					b.WriteByte('{')
					b.WriteString(facts(a.Store))
					b.WriteByte('}')
				}
			} else {
				fmt.Fprintf(&b, "%d", di)
			}
			b.WriteByte(',')
			b.WriteString(a.Priv.String())
			if a.Priv == Reduce {
				b.WriteString(a.Red.String())
			}
			b.WriteByte(',')
			b.WriteString(a.Part.Fingerprint())
		}
		b.WriteString("]\n")
	}
	return b.String()
}
