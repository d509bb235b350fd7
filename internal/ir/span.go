package ir

// Span is a half-open interval [Lo, Hi) of flat element offsets into one
// store's canonical layout. The zero Span is empty.
//
// A rank of the sharded runtime (internal/legion) bounds every (task,
// shard) unit's access to one argument by a span: the tight interval
// covering every element the shard's point tasks touch. A rank
// syncs its peers' updates to the spans its unit reads and ships the
// spans its unit writes. Spans are conservative: two spans that do not
// overlap provably touch disjoint data, while overlapping spans may or
// may not conflict.
type Span struct {
	Lo, Hi int
}

// Empty reports whether the span covers no elements.
func (s Span) Empty() bool { return s.Hi <= s.Lo }

// Overlaps reports whether two spans share at least one element. Empty
// spans overlap nothing.
func (s Span) Overlaps(o Span) bool {
	return !s.Empty() && !o.Empty() && s.Lo < o.Hi && o.Lo < s.Hi
}
