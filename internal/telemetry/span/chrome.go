package span

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
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
// The writer names each track after its container, so tracks are told apart
// by name: two tids of one name (or none, which the writer calls "sim") form
// one track, and ties in root start order by container. Whatever this
// returns, WriteChromeTrace writes back to a file that reads the same.
func ReadChromeTrace(rd io.Reader) ([]Invocation, []Background, error) {
	tr, err := chrome.Decode(rd)
	if err != nil {
		return nil, nil, fmt.Errorf("span: parse chrome trace: %w", err)
	}
	names := map[int]string{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" && ev.Args != nil && ev.Name == "thread_name" {
			names[ev.Tid] = ev.Args.Name
		}
	}
	type rawSpan struct {
		args *chrome.Args
		pos  int
	}
	perTrack := map[string][]rawSpan{}
	var bgs []Background
	var trackOrder []string
	for i, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "background":
			bg := Background{Container: strings.TrimSuffix(names[ev.Tid], " bg")}
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
		case ev.Ph == "X" && ev.Args != nil:
			// An arg-less span has no exact times to nest by, so it is
			// dropped here, before the containment sort reads them.
			track := names[ev.Tid]
			if track == "" {
				track = "sim"
			}
			if _, ok := perTrack[track]; !ok {
				trackOrder = append(trackOrder, track)
			}
			perTrack[track] = append(perTrack[track], rawSpan{args: ev.Args, pos: i})
		}
	}

	var invs []Invocation
	for _, track := range trackOrder {
		raws := perTrack[track]
		// Containment nesting: sort by (start asc, end desc) so parents
		// precede their children, then fold with a stack.
		sort.SliceStable(raws, func(a, b int) bool {
			sa, sb := raws[a].args.StartNS, raws[b].args.StartNS
			if sa != sb {
				return sa < sb
			}
			ea := sa + raws[a].args.DurNS
			eb := sb + raws[b].args.DurNS
			if ea != eb {
				return ea > eb
			}
			return raws[a].pos < raws[b].pos
		})
		type frame struct {
			span *Span
			end  int64
		}
		var stack []frame
		for _, rs := range raws {
			a := rs.args
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
				inv := Invocation{Container: track, Function: a.Function, Root: s}
				if k, ok := startKindByName(a.Kind); ok {
					inv.Kind = k
				}
				invs = append(invs, inv)
				stack = append(stack, frame{span: &invs[len(invs)-1].Root, end: end})
				continue
			}
			parent := stack[len(stack)-1].span
			parent.Children = append(parent.Children, s)
			stack = append(stack, frame{span: &parent.Children[len(parent.Children)-1], end: end})
		}
	}
	// The writer orders invocations and background spans by start time.
	sort.SliceStable(invs, func(i, j int) bool {
		if invs[i].Root.Start != invs[j].Root.Start {
			return invs[i].Root.Start < invs[j].Root.Start
		}
		return invs[i].Container < invs[j].Container
	})
	sort.SliceStable(bgs, func(i, j int) bool { return bgs[i].Start < bgs[j].Start })
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
