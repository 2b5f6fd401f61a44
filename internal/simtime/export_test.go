package simtime

// Pending reports whether the event is still queued and will fire.
func (h Handle) Pending() bool {
	if !h.live() {
		return false
	}
	switch h.ev.state {
	case stBucket, stReady, stSpill:
		return true
	}
	return false
}
