package span

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry/chrome"
)

// Chrome trace-event export of span trees: every span becomes a complete
// ("X") duration event on its container's track, with nesting expressed the
// way Perfetto expects — same tid, child intervals contained in the parent's
// — so invocations render as flame-style stacks. Background spans get a
// per-container "<id> bg" track. The exported file round-trips: ReadChromeTrace
// rebuilds the invocation trees by time containment, which is what the
// faasmem-stat CLI ingests.

const chromeSpanPid = 2 // distinct from the flat tracer's pid 1

// WriteChromeTrace writes the recorder's invocation trees and background
// spans as Chrome trace-event JSON. Invocations are sorted by (root start,
// recording order) and tracks numbered in first-appearance order, so a
// seeded run exports byte-stable output. Besides the µs timestamps the
// viewer needs, each event carries exact integer-ns start/dur args; the
// reader prefers those, making the round trip lossless.
func WriteChromeTrace(w io.Writer, r *Recorder) error {
	invs := r.Invocations()
	bgs := r.Backgrounds()
	sort.SliceStable(invs, func(i, j int) bool { return invs[i].Root.Start < invs[j].Root.Start })
	sort.SliceStable(bgs, func(i, j int) bool { return bgs[i].Start < bgs[j].Start })

	b := chrome.NewEncoder(chromeSpanPid, "faasmem spans", len(invs)*4+len(bgs))
	var emit func(s Span, tid int, inv *Invocation, root bool)
	emit = func(s Span, tid int, inv *Invocation, root bool) {
		name := s.Phase.String()
		args := &chrome.Args{
			Phase:   s.Phase.String(),
			Pages:   s.Pages,
			StartNS: int64(s.Start),
			DurNS:   int64(s.Dur),
		}
		if root {
			name = "request:" + inv.Kind.String()
			args.Function = inv.Function
			args.Kind = inv.Kind.String()
		}
		b.Span(name, "span", tid, s.Start, s.Dur, args)
		for _, c := range s.Children {
			emit(c, tid, inv, false)
		}
	}
	for i := range invs {
		inv := &invs[i]
		emit(inv.Root, b.Track(inv.Container), inv, true)
	}
	for _, bg := range bgs {
		b.Span("bg:"+bg.Kind.String(), "background", b.Track(bg.Container+" bg"), bg.Start, bg.Dur, &chrome.Args{
			Function: bg.Function,
			Kind:     bg.Kind.String(),
			Bytes:    bg.Bytes,
			StartNS:  int64(bg.Start),
			DurNS:    int64(bg.Dur),
		})
	}
	return b.Encode(w)
}

// WriteChromeTraceFile writes the span trace to path, creating or
// truncating it.
func WriteChromeTraceFile(path string, r *Recorder) error {
	return chrome.WriteFile(path, func(w io.Writer) error { return WriteChromeTrace(w, r) })
}

// ReadChromeTrace parses span trace-event JSON produced by WriteChromeTrace
// back into invocation trees and background spans. Nesting is rebuilt by
// time containment within each track, the same rule Perfetto uses to draw
// the stacks, so export → import → Analyze gives identical attribution.
func ReadChromeTrace(rd io.Reader) ([]Invocation, []Background, error) {
	tr, err := chrome.Decode(rd)
	if err != nil {
		return nil, nil, fmt.Errorf("span: parse chrome trace: %w", err)
	}
	tracks := map[int]string{}
	type rawSpan struct {
		ev  chrome.Event
		pos int
	}
	perTid := map[int][]rawSpan{}
	var bgs []Background
	tidOrder := []int{}
	for i, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "M":
			if ev.Args != nil && ev.Name == "thread_name" {
				tracks[ev.Tid] = ev.Args.Name
			}
		case ev.Ph == "X" && ev.Cat == "background":
			bg := Background{Container: trimBGTrack(tracks[ev.Tid])}
			if ev.Args != nil {
				if k, ok := bgKindByName(ev.Args.Kind); ok {
					bg.Kind = k
				}
				bg.Function = ev.Args.Function
				bg.Bytes = ev.Args.Bytes
				bg.Start = simtime.Time(ev.Args.StartNS)
				bg.Dur = time.Duration(ev.Args.DurNS)
			}
			bgs = append(bgs, bg)
		case ev.Ph == "X":
			if _, ok := perTid[ev.Tid]; !ok {
				tidOrder = append(tidOrder, ev.Tid)
			}
			perTid[ev.Tid] = append(perTid[ev.Tid], rawSpan{ev: ev, pos: i})
		}
	}

	var invs []Invocation
	for _, tid := range tidOrder {
		raws := perTid[tid]
		// Containment nesting: sort by (start asc, end desc) so parents
		// precede their children, then fold with a stack.
		sort.SliceStable(raws, func(a, b int) bool {
			sa, sb := raws[a].ev.Args.StartNS, raws[b].ev.Args.StartNS
			if sa != sb {
				return sa < sb
			}
			ea := sa + raws[a].ev.Args.DurNS
			eb := sb + raws[b].ev.Args.DurNS
			if ea != eb {
				return ea > eb
			}
			return raws[a].pos < raws[b].pos
		})
		type frame struct {
			span *Span
			end  int64
			inv  *Invocation
		}
		var stack []frame
		for _, rs := range raws {
			a := rs.ev.Args
			if a == nil {
				continue
			}
			s := Span{
				Start: simtime.Time(a.StartNS),
				Dur:   time.Duration(a.DurNS),
				Pages: a.Pages,
			}
			if p, ok := PhaseByName(a.Phase); ok {
				s.Phase = p
			}
			end := a.StartNS + a.DurNS
			for len(stack) > 0 && (a.StartNS >= stack[len(stack)-1].end ||
				end > stack[len(stack)-1].end) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				inv := Invocation{Container: tracks[tid], Root: s}
				inv.Function = a.Function
				if k, ok := startKindByName(a.Kind); ok {
					inv.Kind = k
				}
				invs = append(invs, inv)
				root := &invs[len(invs)-1]
				stack = append(stack, frame{span: &root.Root, end: end, inv: root})
				continue
			}
			parent := stack[len(stack)-1].span
			parent.Children = append(parent.Children, s)
			child := &parent.Children[len(parent.Children)-1]
			stack = append(stack, frame{span: child, end: end, inv: stack[len(stack)-1].inv})
		}
	}
	// Restore recording order across tracks (root start, then input order is
	// already preserved per track; merge stably by start time).
	sort.SliceStable(invs, func(i, j int) bool { return invs[i].Root.Start < invs[j].Root.Start })
	return invs, bgs, nil
}

// ReadChromeTraceFile parses a span trace file.
func ReadChromeTraceFile(path string) ([]Invocation, []Background, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadChromeTrace(f)
}

func bgKindByName(name string) (BackgroundKind, bool) {
	for k, n := range bgKindNames {
		if n == name {
			return BackgroundKind(k), true
		}
	}
	return 0, false
}

func trimBGTrack(track string) string {
	const suffix = " bg"
	if len(track) > len(suffix) && track[len(track)-len(suffix):] == suffix {
		return track[:len(track)-len(suffix)]
	}
	return track
}
