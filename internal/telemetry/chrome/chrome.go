// Package chrome is the one Chrome trace-event JSON encoder ("JSON Object
// Format", loadable by Perfetto at https://ui.perfetto.dev and by
// chrome://tracing) behind both trace exports: the flat event tracer
// (telemetry.WriteChromeTrace) and the span trees (span.WriteChromeTrace).
// Each export is one process whose tracks (threads) are numbered in
// first-appearance order and labelled by metadata events, and timestamps are
// virtual-time microseconds, so the viewer's timeline is the simulation's
// timeline and a seeded run encodes to the same bytes every time.
package chrome

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

// Event is one trace event: a complete span ("X"), an instant ("i") or
// metadata ("M").
type Event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	// S scopes an instant event ("t": thread).
	S    string `json:"s,omitempty"`
	Args *Args  `json:"args,omitempty"`
}

// Args is the union of both exports' event arguments. It is a fixed struct
// (not a map) so field order, and therefore the encoded bytes, is
// deterministic; every field is omitted when zero.
type Args struct {
	// Name labels a metadata event's process or track.
	Name     string `json:"name,omitempty"`
	Function string `json:"function,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Stage    string `json:"stage,omitempty"`
	Phase    string `json:"phase,omitempty"`
	Value    int64  `json:"value,omitempty"`
	Aux      int64  `json:"aux,omitempty"`
	Pages    int64  `json:"pages,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	// StartNS and DurNS carry exact integer-nanosecond times next to the
	// microsecond Ts/Dur the viewer needs, so a reader can round-trip them.
	StartNS int64 `json:"start_ns,omitempty"`
	DurNS   int64 `json:"dur_ns,omitempty"`
}

// Trace is the JSON envelope.
type Trace struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// Encoder accumulates the events of one process.
type Encoder struct {
	pid  int
	tids map[string]int
	tr   Trace
}

// NewEncoder starts a process pid labelled process, with room for about n
// events.
func NewEncoder(pid int, process string, n int) *Encoder {
	e := &Encoder{
		pid:  pid,
		tids: map[string]int{},
		tr:   Trace{TraceEvents: make([]Event, 0, n+8), DisplayTimeUnit: "ms"},
	}
	e.tr.TraceEvents = append(e.tr.TraceEvents, Event{
		Name: "process_name", Ph: "M", Pid: pid, Args: &Args{Name: process},
	})
	return e
}

// Track returns the track id of name ("sim" when empty), emitting its
// thread-name metadata event on first use.
func (e *Encoder) Track(name string) int {
	if name == "" {
		name = "sim"
	}
	if id, ok := e.tids[name]; ok {
		return id
	}
	id := len(e.tids) + 1
	e.tids[name] = id
	e.tr.TraceEvents = append(e.tr.TraceEvents, Event{
		Name: "thread_name", Ph: "M", Pid: e.pid, Tid: id, Args: &Args{Name: name},
	})
	return id
}

// Span appends a complete event on track tid covering [start, start+dur).
func (e *Encoder) Span(name, cat string, tid int, start simtime.Time, dur time.Duration, args *Args) {
	e.tr.TraceEvents = append(e.tr.TraceEvents, Event{
		Name: name, Cat: cat, Ph: "X", Ts: micros(int64(start)), Dur: micros(int64(dur)),
		Pid: e.pid, Tid: tid, Args: args,
	})
}

// Instant appends a thread-scoped instant event on track tid at at.
func (e *Encoder) Instant(name, cat string, tid int, at simtime.Time, args *Args) {
	e.tr.TraceEvents = append(e.tr.TraceEvents, Event{
		Name: name, Cat: cat, Ph: "i", Ts: micros(int64(at)),
		Pid: e.pid, Tid: tid, S: "t", Args: args,
	})
}

// Encode writes the trace as indented JSON.
func (e *Encoder) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(e.tr)
}

// micros converts nanoseconds to the format's microseconds.
func micros(ns int64) float64 { return float64(ns) / 1e3 }

// Decode parses a trace written by Encode.
func Decode(r io.Reader) (Trace, error) {
	var tr Trace
	err := json.NewDecoder(r).Decode(&tr)
	return tr, err
}

// WriteFile creates or truncates path and writes it with write through a
// buffer, returning the first error of the write, the flush and the close.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
