package simtime

// At reports when the event is scheduled to fire. It returns 0 once the
// event has fired or been cancelled (the storage may already be reused).
func (h Handle) At() Time {
	if h.live() {
		return h.ev.at
	}
	return 0
}

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
