package rdd

// DriverVersions reports how many versions of each broadcast id the driver
// store holds, for the retention tests of the layers above.
func (ctx *Context) DriverVersions() map[string]int {
	s := ctx.ensureStore()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int, len(s.vals))
	for id, m := range s.vals {
		out[id] = len(m)
	}
	return out
}
