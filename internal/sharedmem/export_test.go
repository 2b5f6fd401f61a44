package sharedmem

// Refs returns the number of active mappings.
func (r *Region) Refs() int { return r.refs }
