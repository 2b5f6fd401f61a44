package faas

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// The request touch path and the offload path move pages a run at a time.
// The references below are the per-page walks they replace; the tests drive
// both on identical containers and compare every observable result.

// numPages returns the number of pages allocated in sp.
func numPages(sp *pagemem.Space) int { return sp.PagesOf(sp.TotalBytes()) }

// stateOf returns page id's state, probed through the range API.
func stateOf(sp *pagemem.Space, id pagemem.PageID) pagemem.State {
	r := pagemem.Range{Start: id, End: id + 1}
	for st := pagemem.Inactive; st < pagemem.Remote; st++ {
		if sp.CountInRange(r, st) == 1 {
			return st
		}
	}
	return pagemem.Remote
}

// setState moves page id to state st, whatever its state was.
func setState(sp *pagemem.Space, id pagemem.PageID, st pagemem.State) {
	r := pagemem.Range{Start: id, End: id + 1}
	sp.MoveRange(r, pagemem.Local, st)
	sp.MoveRange(r, pagemem.Remote, st)
}

// refTouchRange is the sequential per-page touch: Inactive pages in
// [start, end) promote to Hot; a Remote page faults, and its fault recalls
// up to window contiguous Remote successors below seg.End as readahead.
func refTouchRange(c *Container, seg pagemem.Range, start, end pagemem.PageID, window int) (faults, readahead int) {
	sp := c.space
	for id := start; id < end; id++ {
		switch stateOf(sp, id) {
		case pagemem.Remote:
			faults++
			setState(sp, id, pagemem.Hot)
			for ra := 0; ra < window; ra++ {
				next := id + 1 + pagemem.PageID(ra)
				if next >= seg.End || stateOf(sp, next) != pagemem.Remote {
					break
				}
				readahead++
				setState(sp, next, pagemem.Hot)
			}
		case pagemem.Inactive:
			setState(sp, id, pagemem.Hot)
		}
	}
	return faults, readahead
}

// refTouchSpans drives refTouchRange over the pages each byte span covers,
// clipped to seg.End.
func refTouchSpans(c *Container, seg pagemem.Range, spans []workload.Span) (faults, readahead int) {
	ps := int64(c.space.PageSize())
	for _, sp := range spans {
		start := seg.Start + pagemem.PageID(sp.Start/ps)
		end := min(seg.Start+pagemem.PageID((sp.End+ps-1)/ps), seg.End)
		if start < end {
			f, ra := refTouchRange(c, seg, start, end, c.p.cfg.Swap.ReadaheadPages)
			faults += f
			readahead += ra
		}
	}
	return faults, readahead
}

// refClassOf is the per-page lifecycle class the class pieces of
// cutSelections replace.
func refClassOf(c *Container, id pagemem.PageID) memnode.Class {
	switch {
	case c.runtimeRange.Start <= id && id < c.runtimeRange.End:
		return memnode.ClassRuntime
	case c.initRange.Start <= id && id < c.initRange.End:
		return memnode.ClassInit
	default:
		return memnode.ClassOther
	}
}

// expandSelections lists the selected pages in (selection, page) order,
// probing each page's state: the order the per-page references visit
// them.
func expandSelections(c *Container, sels []pagemem.Selection) []pagemem.PageID {
	var ids []pagemem.PageID
	for _, sel := range sels {
		for id := sel.R.Start; id < sel.R.End; id++ {
			st := stateOf(c.space, id)
			local := st == pagemem.Inactive || st == pagemem.Hot
			if sel.St == pagemem.Local && local || sel.St == st {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// refOffloadCandidates is the per-page candidate filter: the first max
// locally resident pages of ids, counted by class.
func refOffloadCandidates(c *Container, ids []pagemem.PageID, max int) ([]pagemem.PageID, rmem.ClassCounts) {
	var cand []pagemem.PageID
	var counts rmem.ClassCounts
	for _, id := range ids {
		if len(cand) >= max {
			break
		}
		st := stateOf(c.space, id)
		if st != pagemem.Inactive && st != pagemem.Hot {
			continue
		}
		cand = append(cand, id)
		counts[refClassOf(c, id)]++
	}
	return cand, counts
}

// refOffloadAccepted is the per-page move: the first accepted[cls]
// candidates of each class go Remote, in cand order.
func refOffloadAccepted(c *Container, cand []pagemem.PageID, accepted rmem.ClassCounts) []pagemem.PageID {
	var moved []pagemem.PageID
	for _, id := range cand {
		cls := refClassOf(c, id)
		if accepted[cls] == 0 {
			continue
		}
		accepted[cls]--
		setState(c.space, id, pagemem.Remote)
		moved = append(moved, id)
	}
	return moved
}

// walkContainer builds a container with runtime and init segments of sizes
// that are not multiples of 64, plus untracked pages outside
// both ranges, then scatters runs of Inactive, Hot and Remote pages over the
// monitored segments. The same seed builds the same container.
func walkContainer(seed int64) *Container {
	sp := pagemem.NewSpace(pagemem.DefaultPageSize)
	c := &Container{space: sp, pol: policy.Base{}}
	c.runtimeRange = sp.Alloc(300)
	c.initRange = sp.Alloc(221)
	sp.Alloc(137) // outside both ranges: ClassOther
	rng := rand.New(rand.NewSource(seed))
	for _, r := range []pagemem.Range{c.runtimeRange, c.initRange} {
		for id := r.Start; id < r.End; {
			n := pagemem.PageID(1 + rng.Intn(160))
			st := pagemem.State(rng.Intn(3))
			for end := min(id+n, r.End); id < end; id++ {
				setState(sp, id, st)
			}
		}
	}
	return c
}

// withWindow gives c a platform whose swap path reads ahead window pages,
// which is all the touch walk reads from it.
func withWindow(c *Container, window int) *Container {
	c.p = &Platform{cfg: Config{Swap: SwapConfig{ReadaheadPages: window}}}
	return c
}

// sameContainer fails unless the two containers' pages agree in state and
// per-stage counts. Both hold runtime, init and exec pages in that order.
func sameContainer(t *testing.T, label string, got, want *Container) {
	t.Helper()
	stages := []struct {
		name string
		r    pagemem.Range
	}{
		{"runtime", want.runtimeRange},
		{"init", want.initRange},
		{"exec", pagemem.Range{Start: want.initRange.End, End: pagemem.PageID(numPages(want.space))}},
	}
	for _, stage := range stages {
		for st := pagemem.Inactive; st <= pagemem.Remote; st++ {
			if g, w := got.space.CountInRange(stage.r, st), want.space.CountInRange(stage.r, st); g != w {
				t.Fatalf("%s: %v pages in %s = %d, want %d", label, st, stage.name, g, w)
			}
		}
	}
	for id := pagemem.PageID(0); int(id) < numPages(want.space); id++ {
		if g, w := stateOf(got.space, id), stateOf(want.space, id); g != w {
			t.Fatalf("%s: page %d state %v, want %v", label, id, g, w)
		}
	}
}

// touchLog is a no-op policy that records the ranges it hears touched.
type touchLog struct {
	policy.Base
	touched []pagemem.Range
}

func (l *touchLog) Touched(r pagemem.Range) { l.touched = append(l.touched, r) }

// TestTouchRangeMatchesSequentialWalk drives random spans through the run
// walk and the per-page reference with readahead windows of none, one page,
// a few pages (8) and more than a typical run (70), which clip at the
// segment end. The policy hears each span touched once, whole.
func TestTouchRangeMatchesSequentialWalk(t *testing.T) {
	for _, window := range []int{0, 1, 8, 70} {
		for seed := int64(1); seed <= 20; seed++ {
			fast, slow := walkContainer(seed), walkContainer(seed)
			log := &touchLog{}
			fast.pol = log
			rng := rand.New(rand.NewSource(seed * 31))
			for i := 0; i < 12; i++ {
				seg := fast.runtimeRange
				if rng.Intn(2) == 0 {
					seg = fast.initRange
				}
				start := seg.Start + pagemem.PageID(rng.Intn(seg.Len()))
				end := start + pagemem.PageID(1+rng.Intn(int(seg.End-start)))
				log.touched = log.touched[:0]
				f1, ra1 := fast.touchRange(seg, start, end, window)
				f2, ra2 := refTouchRange(slow, seg, start, end, window)
				if f1 != f2 || ra1 != ra2 {
					t.Fatalf("window %d seed %d touch [%d,%d): faults/readahead %d/%d, want %d/%d",
						window, seed, start, end, f1, ra1, f2, ra2)
				}
				if want := (pagemem.Range{Start: start, End: end}); len(log.touched) != 1 || log.touched[0] != want {
					t.Fatalf("window %d seed %d: policy heard %v touched, want [%v]", window, seed, log.touched, want)
				}
				sameContainer(t, "touch", fast, slow)
				// Push some pages back out so later spans fault again.
				for id := seg.Start; id < seg.End; id++ {
					if rng.Intn(3) == 0 && stateOf(fast.space, id) != pagemem.Remote {
						setState(fast.space, id, pagemem.Remote)
						setState(slow.space, id, pagemem.Remote)
					}
				}
			}
		}
	}
}

// offloadSelections builds one of four producer-shaped selection lists over
// c, with the budget its producer passes:
//   - semi-warm: state-major, Inactive then Hot, runtime then init, so the
//     list goes back to earlier pages, with a random page budget;
//   - DAMON: the local pages of adjacent random regions over every page,
//     so regions straddle the runtime/init boundary and reach the
//     ClassOther tail, and neighbouring regions share a run;
//   - Puckets: the runtime and init ranges whole in the Inactive state;
//   - TMO: disjoint stretches of each range's local runs, as Local
//     selections, with a random page budget.
func offloadSelections(c *Container, shape int, rng *rand.Rand) ([]pagemem.Selection, int) {
	rt, init := c.runtimeRange, c.initRange
	switch shape {
	case 0:
		return []pagemem.Selection{{R: rt, St: pagemem.Inactive}, {R: init, St: pagemem.Inactive},
			{R: rt, St: pagemem.Hot}, {R: init, St: pagemem.Hot}}, 1 + rng.Intn(numPages(c.space))
	case 1:
		var sels []pagemem.Selection
		for id := pagemem.PageID(0); int(id) < numPages(c.space); {
			end := min(id+pagemem.PageID(1+rng.Intn(90)), pagemem.PageID(numPages(c.space)))
			if rng.Intn(3) != 0 {
				sels = append(sels, pagemem.Selection{R: pagemem.Range{Start: id, End: end}, St: pagemem.Local})
			}
			id = end
		}
		return sels, 0
	case 2:
		return []pagemem.Selection{{R: rt, St: pagemem.Inactive}, {R: init, St: pagemem.Inactive}}, 0
	}
	var sels []pagemem.Selection
	for _, r := range []pagemem.Range{rt, init} {
		for it := c.space.Runs(r, pagemem.Local); it.Next(); {
			for p, end := max(it.Run.Start, r.Start), min(it.Run.End, r.End); p < end; {
				q := min(p+pagemem.PageID(1+rng.Intn(40)), end)
				if rng.Intn(3) != 0 {
					sels = append(sels, pagemem.Selection{R: pagemem.Range{Start: p, End: q}, St: pagemem.Local})
				}
				p = q
			}
		}
	}
	return sels, 1 + rng.Intn(rt.Len()+init.Len())
}

// TestOffloadMatchesPerPageMove drives every producer-shaped selection list
// through the piece count and move and through the per-page reference on
// the expanded page list, with the budget truncating the batch and
// admission trimming random classes. A second pass runs the same lists
// through OffloadPages on a platform whose pool and memory node truncate,
// and checks the pages moved and the node ledger's local and remote bytes
// against the Space's.
func TestOffloadMatchesPerPageMove(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		// The piece count keeps its pieces in platform scratch.
		fast := withWindow(walkContainer(seed), 0)
		slow := walkContainer(seed)
		rng := rand.New(rand.NewSource(seed * 17))
		sels, limit := offloadSelections(fast, int(seed%4), rng)
		ids := expandSelections(slow, sels)
		if limit <= 0 {
			limit = math.MaxInt
		}
		pieces, total := fast.cutSelections(sels, limit)
		if want := min(len(ids), limit); total != want {
			t.Fatalf("seed %d: counted %d pages, want %d", seed, total, want)
		}
		granted := rng.Intn(total + 1)
		var counts rmem.ClassCounts
		left := granted
		for _, pc := range pieces {
			counts[pc.cls] += min(pc.n, left)
			left -= min(pc.n, left)
		}
		wantCand, wantCounts := refOffloadCandidates(slow, ids, granted)
		if counts != wantCounts {
			t.Fatalf("seed %d: class counts %v, want %v", seed, counts, wantCounts)
		}
		accepted := counts
		for cls := range accepted {
			accepted[cls] = rng.Intn(accepted[cls] + 1)
		}
		moved := fast.movePieces(pieces, granted, accepted)
		wantMoved := refOffloadAccepted(slow, wantCand, accepted)
		if moved != len(wantMoved) {
			t.Fatalf("seed %d: moved %d pages, want %d", seed, moved, len(wantMoved))
		}
		sameContainer(t, "offload", fast, slow)
	}
	for seed := int64(1); seed <= 40; seed++ {
		fast := walkContainer(seed)
		slow := walkContainer(seed)
		rng := rand.New(rand.NewSource(seed * 29))
		sels, limit := offloadSelections(fast, int(seed%4), rng)
		ids := expandSelections(slow, sels)
		if limit > 0 && limit < len(ids) {
			ids = ids[:limit]
		}
		pageB := int64(fast.space.PageSize())
		dram := int64(50+rng.Intn(200)) * pageB
		e := simtime.NewEngine()
		p := New(e, Config{
			Pool: rmem.Config{Node: &memnode.Config{DRAMBytes: dram, SpillBytes: pageB, DisableCompression: true}},
		}, policy.NoOffload{})
		fast.p, fast.fn, fast.owner = p, &Function{id: "f"}, "f#1"
		// Book the container's residency in the node ledger, as it would be
		// after real offloads.
		p.account(0, fast.space.LocalBytes(), fast.space.RemoteBytes())
		granted := min(len(ids), int(p.pool.AcceptableBytes(0)/pageB))
		before := remoteByClass(fast)
		moved := fast.OffloadPages(e, sels, limit)
		after := remoteByClass(fast)
		var accepted rmem.ClassCounts
		for cls := range accepted {
			accepted[cls] = after[cls] - before[cls]
		}
		wantCand, _ := refOffloadCandidates(slow, ids, granted)
		if wantMoved := refOffloadAccepted(slow, wantCand, accepted); moved != len(wantMoved) {
			t.Fatalf("seed %d: OffloadPages moved %d pages, want %d", seed, moved, len(wantMoved))
		}
		sameContainer(t, "OffloadPages", fast, slow)
		if g, w := p.NodeRemoteBytes(), fast.space.RemoteBytes(); g != w {
			t.Fatalf("seed %d: node remote %d bytes, space remote %d", seed, g, w)
		}
		if g, w := p.NodeLocalBytes(), fast.space.LocalBytes(); g != w {
			t.Fatalf("seed %d: node local %d bytes, space local %d", seed, g, w)
		}
	}
}

// remoteByClass counts c's remote pages by lifecycle class.
func remoteByClass(c *Container) (n rmem.ClassCounts) {
	for id := pagemem.PageID(0); int(id) < numPages(c.space); id++ {
		if stateOf(c.space, id) == pagemem.Remote {
			n[refClassOf(c, id)]++
		}
	}
	return n
}

// spanCall is one touch call: byte spans relative to seg.
type spanCall struct {
	seg   pagemem.Range
	spans []workload.Span
}

// checkSpanCalls replays calls through the run walk and the per-page walk
// on two identical containers built by build. Every call's counts must
// agree and the two walks must leave identical containers.
func checkSpanCalls(t *testing.T, label string, build func() *Container, calls []spanCall) {
	t.Helper()
	walk, slow := build(), build()
	for i, call := range calls {
		wf, wra := walk.touchSpans(call.seg, call.spans)
		sf, sra := refTouchSpans(slow, call.seg, call.spans)
		if wf != sf || wra != sra {
			t.Fatalf("%s call %d %v: faults/readahead walk %d/%d, per-page walk %d/%d",
				label, i, call.spans, wf, wra, sf, sra)
		}
	}
	sameContainer(t, label+": walk", walk, slow)
}

// TestCountSpansMatchesWalk drives random calls through the run walk and
// checks the counts it returns and the container it leaves against the
// per-page walk. Calls alternate between the runtime and init ranges at
// random, so a range is revisited within one replay; spans start at
// unaligned bytes, overlap, and clip at the segment end; the readahead
// windows are none, one page, a few pages (8) and more than a typical run
// (70).
func TestCountSpansMatchesWalk(t *testing.T) {
	for _, window := range []int{0, 1, 8, 70} {
		for seed := int64(1); seed <= 40; seed++ {
			build := func() *Container { return withWindow(walkContainer(seed), window) }
			c := build()
			ps := int64(c.space.PageSize())
			rng := rand.New(rand.NewSource(seed*131 + int64(window)))
			calls := make([]spanCall, 2+rng.Intn(4))
			for i := range calls {
				seg := c.runtimeRange
				if rng.Intn(2) == 0 {
					seg = c.initRange
				}
				bytes := int64(seg.Len()) * ps
				spans := make([]workload.Span, 1+rng.Intn(6))
				for j := range spans {
					start := rng.Int63n(bytes)
					spans[j] = workload.Span{Start: start, End: start + 1 + rng.Int63n(bytes/2)}
				}
				calls[i] = spanCall{seg: seg, spans: spans}
			}
			checkSpanCalls(t, fmt.Sprintf("window %d seed %d", window, seed), build, calls)
		}
	}
}

// FuzzTouchWalk checks the run walk against its per-page reference on
// fuzzer-chosen layouts, spans and windows.
// runtime and init size the two monitored segments (in pages); each layout
// byte paints the next run of pages, runtime then init, with state
// 1+b%3 (Inactive, Hot, Remote) over 1+b/3 pages; window%80 is the
// readahead window. spans is read in 5-byte records: flags, then the
// start and the length in 64-byte units (little-endian uint16s). flags bit
// 0 picks the init segment, bit 1 appends the span to the previous call
// when that call is on the same segment.
func FuzzTouchWalk(f *testing.F) {
	f.Add(uint16(300), uint16(221), uint8(8), []byte{8, 200, 254, 254, 254}, []byte{0, 0, 15, 0, 1, 1, 0, 0, 0, 16})
	f.Fuzz(func(t *testing.T, runtime, init uint16, window uint8, layout, spans []byte) {
		if len(spans) > 5*16 {
			spans = spans[:5*16]
		}
		build := func() *Container {
			sp := pagemem.NewSpace(pagemem.DefaultPageSize)
			c := &Container{space: sp, pol: policy.Base{}}
			c.runtimeRange = sp.Alloc(1 + int(runtime)%700)
			c.initRange = sp.Alloc(1 + int(init)%700)
			sp.Alloc(37) // untracked pages past the init segment
			id, end := c.runtimeRange.Start, c.initRange.End
			for _, b := range layout {
				st := pagemem.State(b % 3)
				for stop := min(id+1+pagemem.PageID(b/3), end); id < stop; id++ {
					setState(sp, id, st)
				}
			}
			return withWindow(c, int(window)%80)
		}
		c := build()
		var calls []spanCall
		for ; len(spans) >= 5; spans = spans[5:] {
			seg := c.runtimeRange
			if spans[0]&1 != 0 {
				seg = c.initRange
			}
			start := int64(binary.LittleEndian.Uint16(spans[1:])) * 64
			span := workload.Span{Start: start, End: start + int64(binary.LittleEndian.Uint16(spans[3:]))*64 + 1}
			if k := len(calls) - 1; spans[0]&2 != 0 && k >= 0 && calls[k].seg == seg {
				calls[k].spans = append(calls[k].spans, span)
				continue
			}
			calls = append(calls, spanCall{seg: seg, spans: []workload.Span{span}})
		}
		checkSpanCalls(t, "fuzz", build, calls)
	})
}
