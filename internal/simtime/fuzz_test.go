package simtime

import "testing"

// FuzzEngineVsReference feeds random schedule/cancel/reschedule/step/
// runUntil/arrivals programs to the timer-wheel Engine and the heap
// Reference and asserts both produce the identical firing sequence. Seeds
// cover every wheel level, the spill heap, window handoffs, ties, arrival
// timelines, and in-callback scheduling.
func FuzzEngineVsReference(f *testing.F) {
	f.Add([]byte{})
	// Dense near-future schedules with ties (op 0-2 with tiny delays).
	f.Add([]byte{0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0})
	// Far-future spill events (large shift bytes) plus cancels.
	f.Add([]byte{0, 255, 255, 35, 0, 255, 255, 34, 4, 0, 0, 128, 128, 20, 6, 6, 6})
	// Callback chains and reschedules around RunUntil deadlines.
	f.Add([]byte{3, 0, 200, 10, 3, 7, 1, 0, 12, 5, 0, 0, 50, 8, 7, 0, 255, 16, 4, 1})
	// Mixed levels: L0/L1/L2 boundaries via shift bytes 8, 16, 28.
	f.Add([]byte{0, 0, 1, 8, 0, 0, 1, 16, 0, 0, 1, 28, 2, 0, 1, 12, 6, 4, 2, 7, 0, 4, 24})
	// Arrival timelines (op 8) with duplicate and unsorted times, whose
	// callbacks schedule same-instant follow-ups, around RunUntil
	// deadlines and beside plain schedules at the same times.
	f.Add([]byte{8, 0, 0, 0, 6, 0, 4, 1, 0, 119, 3, 8, 0, 1, 10, 4, 0, 0, 2, 6, 0, 0, 0, 0, 7, 0, 40, 12, 6, 7, 0, 0, 0, 8, 0, 1, 28, 3, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runBoth(t, data)
	})
}
