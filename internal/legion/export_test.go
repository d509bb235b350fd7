package legion

// SimMetadataLen reports how many stores have last-writer and
// pending-reduction entries — the coherence metadata only ModeSim's cost
// model reads.
func SimMetadataLen(rt *Runtime) (writers, pendRed int) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	return len(rt.writers), len(rt.pendRed)
}
