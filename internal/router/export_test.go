package router

// HeadMasks exposes a router's head masks to the external tests.
func (r *Router) HeadMasks() (pend, ready []uint64) { return r.pend, r.ready }

// RecomputedMasks exposes recomputedMasks to the external tests.
func RecomputedMasks(r *Router) (pend, ready []uint64) { return recomputedMasks(r) }
