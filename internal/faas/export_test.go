package faas

// QueuedRequests returns the number of requests waiting for a container.
// Only tests read the queue depth.
func (f *Function) QueuedRequests() int { return len(f.queue) }
