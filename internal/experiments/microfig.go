package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/policy"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/simtime/lazyrand"
	"github.com/faasmem/faasmem/internal/workload"
)

// ---------------------------------------------------------------- Figure 4

// Fig4Row reports one runtime's inactive memory after a hello-world request.
type Fig4Row struct {
	Platform   workload.Platform `col:"platform"`
	Language   workload.Language `col:"runtime"`
	InactiveMB float64           `col:"inactive memory,%.0f MB"`
}

// Fig4 reproduces Figure 4: the inactive runtime-segment memory of
// hello-world containers across OpenWhisk and Azure base images. A container
// executes one request; pages of the runtime segment whose Access bit never
// flipped afterwards are the inactive runtime memory (paper: OpenWhisk
// Python 24 MB, Java 57 MB; Azure > 100 MB each).
func Fig4() []Fig4Row {
	type cell struct {
		pl   workload.Platform
		lang workload.Language
	}
	var cells []cell
	for _, pl := range []workload.Platform{workload.OpenWhisk, workload.Azure} {
		for _, lang := range []workload.Language{workload.NodeJS, workload.Python, workload.Java} {
			cells = append(cells, cell{pl, lang})
		}
	}
	rows := make([]Fig4Row, len(cells))
	runGrid(len(cells), func(i int) {
		prof := workload.HelloWorld(cells[i].pl, cells[i].lang)
		e := simtime.NewEngine()
		p := faas.New(e, faas.Config{KeepAliveTimeout: time.Minute, Seed: 1}, policy.NoOffload{})
		f := p.Register(prof.Name, prof)
		p.ScheduleInvocations(prof.Name, []simtime.Time{0})
		e.RunUntil(30 * time.Second)
		if f.LiveContainers() != 1 {
			panic("fig4: container did not survive to measurement")
		}
		// Inactive pages of the runtime segment = allocated during
		// runtime loading, never re-accessed.
		c := findContainer(f)
		inactive := c.Space().CountInRange(c.RuntimeRange(), pagemem.Inactive)
		rows[i] = Fig4Row{
			Platform:   cells[i].pl,
			Language:   cells[i].lang,
			InactiveMB: float64(inactive) * float64(c.Space().PageSize()) / 1e6,
		}
	})
	return rows
}

// findContainer retrieves a live idle container of f for inspection.
func findContainer(f *faas.Function) *faas.Container {
	c := f.IdleContainer()
	if c == nil {
		panic("experiments: no idle container to inspect")
	}
	return c
}

// ---------------------------------------------------------------- Figure 6

// Fig6Row is one sample of the BERT access-scan timeline.
type Fig6Row struct {
	// Time since container start, seconds.
	TimeSec float64 `col:"time,%.1fs"`
	// Phase labels the lifecycle stage ("init" or "request").
	Phase string `col:"phase"`
	// ResidentMB is the allocated footprint at this instant.
	ResidentMB float64 `col:"resident,%.0f MB"`
	// AccessedMB is how much memory this sample accessed (allocation during
	// init; per-request touch during execution).
	AccessedMB float64 `col:"accessed,%.0f MB"`
}

// Fig6Options sizes the scan.
type Fig6Options struct {
	// Requests after initialization, one a second. Default 10.
	Requests int
	Seed     int64
}

// Fig6 reproduces Figure 6: BERT's memory footprint and access pattern over
// time — initialization allocates ~1 GB (some released), and each request
// re-accesses ~610 MB of which ~400 MB are init-stage hot pages.
func Fig6(opt Fig6Options) []Fig6Row {
	if opt.Requests <= 0 {
		opt.Requests = 10
	}
	prof := workload.Bert()
	rng := lazyrand.New(opt.Seed)
	var rows []Fig6Row

	// Init phase: the paper's scan shows allocation climbing to ~1000 MB
	// during the first ~5 s and settling at the resident init footprint.
	const peakMB = 1000.0
	resident := float64(prof.InitBytes) / 1e6
	initSec := prof.InitTime.Seconds()
	steps := 10
	for i := 1; i <= steps; i++ {
		t := initSec * float64(i) / float64(steps)
		alloc := peakMB * float64(i) / float64(steps)
		if i == steps {
			alloc = resident
		}
		rows = append(rows, Fig6Row{
			TimeSec:    t,
			Phase:      "init",
			ResidentMB: alloc,
			AccessedMB: peakMB * 1 / float64(steps),
		})
	}
	// Requests: runtime hot + init hot + jitter + exec temporaries.
	start := initSec + 3 // idle gap before the first request, as in the scan
	var touches workload.Touches
	for i := 0; i < opt.Requests; i++ {
		prof.RequestTouches(rng, &touches)
		var initTouched int64
		for _, sp := range touches.Init {
			initTouched += sp.Len()
		}
		var runtimeTouched int64
		for _, sp := range touches.Runtime {
			runtimeTouched += sp.Len()
		}
		accessed := float64(initTouched+runtimeTouched+prof.ExecBytes) / 1e6
		rows = append(rows, Fig6Row{
			TimeSec:    start + float64(i),
			Phase:      "request",
			ResidentMB: resident + float64(prof.RuntimeBytes)/1e6,
			AccessedMB: accessed,
		})
	}
	return rows
}

// ---------------------------------------------------------------- Figure 9

// Fig9Span is one cached-object strip within a request's access scan.
type Fig9Span struct {
	StartMB, EndMB float64
}

// Fig9Row is one request's cached-object accesses in the Web benchmark.
type Fig9Row struct {
	Request int
	// SharedMB is the shared framework/template touch.
	SharedMB float64
	// Objects are the Pareto-selected cached pages' spans within the init
	// segment — the vertical bars of one column in the paper's plot.
	Objects []Fig9Span
}

// Fig9 reproduces Figure 9: each Web request's access scan shows a shared
// base plus a handful of cached HTML objects selected by Pareto-distributed
// idx — the vertical strips of the paper's plot.
func Fig9(requests int, seed int64) []Fig9Row {
	if requests <= 0 {
		requests = 25
	}
	prof := workload.Web()
	rng := lazyrand.New(seed)
	rows := make([]Fig9Row, 0, requests)
	var touches workload.Touches
	for i := 0; i < requests; i++ {
		prof.RequestTouches(rng, &touches)
		row := Fig9Row{Request: i}
		if len(touches.Init) > 0 {
			row.SharedMB = float64(touches.Init[0].Len()) / 1e6
		}
		for _, sp := range touches.Init[1:] {
			row.Objects = append(row.Objects, Fig9Span{
				StartMB: float64(sp.Start) / 1e6,
				EndMB:   float64(sp.End) / 1e6,
			})
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintFig9 renders the Web scan strips.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9: Web access scan (per-request cached-object strips)")
	table := make([][]string, len(rows))
	for i, r := range rows {
		spans := make([]string, len(r.Objects))
		for j, o := range r.Objects {
			spans[j] = fmt.Sprintf("%.1f-%.1f", o.StartMB, o.EndMB)
		}
		table[i] = []string{
			fmt.Sprintf("%d", r.Request),
			fmt.Sprintf("%.0f MB", r.SharedMB),
			strings.Join(spans, " "),
		}
	}
	writeTable(w, []string{"request", "shared", "object spans (MB)"}, table)
}

// ---------------------------------------------------------------- Figure 15

// Fig15Row reports the wall-clock overhead of Pucket operations for one
// benchmark's footprint.
type Fig15Row struct {
	Bench string `col:"benchmark"`
	// RuntimeInitBarrier is the cost of inserting the Runtime-Init barrier:
	// allocating the runtime segment's pages and recording their range,
	// which is the Runtime Pucket.
	RuntimeInitBarrier time.Duration `col:"runtime-init barrier,%.3f ms,ms"`
	// InitExecBarrier is the same for the Init-Execution barrier and the
	// init segment.
	InitExecBarrier time.Duration `col:"init-exec barrier,%.3f ms,ms"`
	// Rollback is the cost of one periodic rollback of both Puckets' hot
	// pages.
	Rollback time.Duration `col:"rollback,%.3f ms,ms"`
}

// Fig15 reproduces Figure 15: the blocking cost of time-barrier insertion
// and periodic rollback, measured in wall-clock time on this
// implementation's data structures (the paper: ≤ 2.5 ms for micro
// benchmarks, ≤ 10 ms for applications; rollback ≤ 7.5 ms).
func Fig15() []Fig15Row {
	var rows []Fig15Row
	for _, prof := range workload.Profiles() {
		space := pagemem.NewSpace(pagemem.DefaultPageSize)
		t0 := time.Now()
		runtimeRange := space.AllocBytes(prof.RuntimeBytes)
		d1 := time.Since(t0)

		t1 := time.Now()
		initRange := space.AllocBytes(prof.InitBytes)
		d2 := time.Since(t1)

		// Populate the hot pool with the per-request hot set, then measure a
		// full rollback (hot pages back to their Puckets' inactive lists).
		promote := func(seg pagemem.Range, hotBytes int64) {
			end := min(seg.Start+pagemem.PageID(hotBytes/int64(space.PageSize())), seg.End)
			space.MoveRange(pagemem.Range{Start: seg.Start, End: end}, pagemem.Inactive, pagemem.Hot)
		}
		promote(runtimeRange, prof.RuntimeHotBytes)
		promote(initRange, prof.InitHotBytes)
		t2 := time.Now()
		core.Pucket{Seg: runtimeRange}.Rollback(space)
		core.Pucket{Seg: initRange}.Rollback(space)
		d3 := time.Since(t2)

		rows = append(rows, Fig15Row{
			Bench:              prof.Name,
			RuntimeInitBarrier: d1,
			InitExecBarrier:    d2,
			Rollback:           d3,
		})
	}
	return rows
}
