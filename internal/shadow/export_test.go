package shadow

// DrainSlabPool empties the process's slab pool, so the next page slabs are
// fresh allocations: what the external tests compare a recycled run against.
func DrainSlabPool() {
	slabs.mu.Lock()
	slabs.free = nil
	slabs.mu.Unlock()
}
