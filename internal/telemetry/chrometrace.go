package telemetry

import (
	"io"
	"sort"

	"github.com/faasmem/faasmem/internal/telemetry/chrome"
)

// Chrome trace-event export of the tracer ring (see package chrome): one
// track per actor (container, node, link) under process 1. Spans become
// complete events, instants become thread-scoped instant events.

const chromePid = 1

// WriteChromeTrace writes the tracer's events as Chrome trace-event JSON.
// Events are sorted by (At, recording order) and tracks are numbered in
// first-appearance order, so the output of a seeded run is byte-stable.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	evs := t.Events()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	b := chrome.NewEncoder(chromePid, "faasmem", len(evs))
	for _, ev := range evs {
		tid := b.Track(ev.Actor)
		var args *chrome.Args
		if ev.Fn != "" || ev.Stage != StageNone || ev.Value != 0 || ev.Aux != 0 {
			args = &chrome.Args{Function: ev.Fn, Stage: ev.Stage.String(), Value: ev.Value, Aux: ev.Aux}
		}
		if ev.Dur > 0 {
			b.Span(ev.Kind.String(), eventCategory(ev.Kind), tid, ev.At, ev.Dur, args)
		} else {
			b.Instant(ev.Kind.String(), eventCategory(ev.Kind), tid, ev.At, args)
		}
	}
	return b.Encode(w)
}

// WriteChromeTraceFile writes the trace to path, creating or truncating it.
func WriteChromeTraceFile(path string, t *Tracer) error {
	return chrome.WriteFile(path, func(w io.Writer) error { return WriteChromeTrace(w, t) })
}

// eventCategory groups kinds into the filterable categories Perfetto shows.
func eventCategory(k Kind) string {
	switch k {
	case KindContainerLaunch, KindRuntimeLoaded, KindInitDone,
		KindContainerIdle, KindContainerRecycle, KindContainerEvict:
		return "lifecycle"
	case KindRequest:
		return "request"
	case KindBarrierInsert, KindPageOffload, KindPucketOffload,
		KindRollback, KindWindowFixed, KindSemiWarmEnter, KindSemiWarmExit:
		return "offload"
	case KindPageFault:
		return "fault"
	case KindLinkTransfer, KindLinkSaturation:
		return "link"
	default:
		return "misc"
	}
}
