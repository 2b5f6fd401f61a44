package pagemem

import (
	"testing"

	"github.com/faasmem/faasmem/internal/workload"
)

// BenchmarkFragmentedSpace times the run list's worst case: a Bert-sized
// init range with one run per page, its states cycling Inactive, Hot,
// Remote page by page. Each iteration restores that layout untimed, then
// times one request-style touch and promote over a 10% span, one Prefix
// seeking 256 hot pages, and one offload-style MoveRange of a 1% span.
func BenchmarkFragmentedSpace(b *testing.B) {
	frag, work := NewSpace(DefaultPageSize), NewSpace(DefaultPageSize)
	bytes := workload.Bert().InitBytes
	seg := frag.AllocBytes(SegInit, bytes)
	work.AllocBytes(SegInit, bytes)
	for id := seg.Start; id < seg.End; id++ {
		frag.SetState(id, State(int(id-seg.Start)%numStates))
	}
	n := PageID(seg.Len())
	touch := Range{Start: seg.Start + n*45/100, End: seg.Start + n*55/100}
	offload := Range{Start: seg.Start + n/10, End: seg.Start + n*11/100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work.CopyStates(frag)
		b.StartTimer()
		work.TouchRange(touch)
		work.MoveRange(touch, Inactive, Hot)
		if _, k := work.Prefix(seg, Hot, 256); k != 256 {
			b.Fatalf("Prefix found %d hot pages, want 256", k)
		}
		if work.MoveRange(offload, Local, Remote) == 0 {
			b.Fatal("offload moved nothing")
		}
	}
}
