package faas

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/pagemem"
	"github.com/faasmem/faasmem/internal/sharedmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/workload"
)

// This file runs workflow DAGs over the platform: each stage is a function
// whose invocations carry StageHooks, intermediate state flows through
// pool-backed shared regions (internal/sharedmem), and dependency readiness
// is tracked per run. With state passing disabled — or when a region is
// lost to a pool fault — consumers replay the producer's work locally,
// priced as a re-derivation at reinitBandwidth (the storage-round-trip
// baseline real workflow engines pay).

// reinitBandwidth is the local/storage re-derivation bandwidth in bytes per
// second.
const reinitBandwidth = 1e9

// WorkflowConfig parameterizes a WorkflowEngine.
type WorkflowConfig struct {
	// Engine is the simulation engine (shared with the target platform).
	Engine *simtime.Engine
	// Shared is the region manager used when StatePassing is on. The
	// manager must wrap the same pool the platform offloads to.
	Shared *sharedmem.Manager
	// Register registers one stage function on the target (platform or
	// cluster). Called once per stage at engine construction.
	Register func(id string, prof *workload.Profile)
	// Invoke fires one stage request on the target.
	Invoke func(fnID string, hooks *StageHooks)
	// StatePassing routes intermediate state through pool-backed shared
	// regions. Off, every consumer re-derives its inputs at
	// reinitBandwidth — the cold baseline.
	StatePassing bool
}

// WorkflowStats aggregates a workflow engine's outcomes across runs.
type WorkflowStats struct {
	// Runs counts started workflow runs; Completed the fully-drained ones.
	Runs, Completed int
	// Invocations counts completed stage requests (replicas included).
	Invocations int
	// Replays counts consumers that re-derived an input because its region
	// was lost or unreachable (pool fault at produce or map time).
	Replays int
	// Reinits counts inputs re-derived because state passing is off, plus
	// region shortfalls re-derived by consumers.
	Reinits int
	// CowBreaks counts copy-on-write unshares from dirty stage writes.
	CowBreaks int
	// StateInTime / StateOutTime accumulate critical-path state latency;
	// StateInBytes / StateOutBytes the bytes moved.
	StateInTime, StateOutTime   time.Duration
	StateInBytes, StateOutBytes int64
}

// WorkflowEngine runs one workflow's DAG repeatedly against a target.
type WorkflowEngine struct {
	cfg   WorkflowConfig
	wf    *workload.Workflow
	deps  [][]int // stage → dependency stage indices
	outs  [][]int // stage → dependent stage indices
	runs  int
	stats WorkflowStats
}

// NewWorkflowEngine validates the workflow, registers its stage functions
// on the target (one function per stage, named "<workflow>.<stage>") and
// returns an engine ready to Run.
func NewWorkflowEngine(cfg WorkflowConfig, wf *workload.Workflow) (*WorkflowEngine, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	if cfg.Engine == nil || cfg.Register == nil || cfg.Invoke == nil {
		return nil, fmt.Errorf("faas: workflow engine needs Engine, Register and Invoke")
	}
	if cfg.StatePassing && cfg.Shared == nil {
		return nil, fmt.Errorf("faas: state passing needs a shared-region manager")
	}
	e := &WorkflowEngine{
		cfg:  cfg,
		wf:   wf,
		deps: make([][]int, len(wf.Stages)),
		outs: make([][]int, len(wf.Stages)),
	}
	idx := make(map[string]int, len(wf.Stages))
	for i := range wf.Stages {
		idx[wf.Stages[i].Name] = i
	}
	for i := range wf.Stages {
		s := &wf.Stages[i]
		prof := workload.ByName(s.Profile)
		if prof == nil {
			return nil, fmt.Errorf("faas: workflow %s: stage %q: unknown profile %q", wf.Name, s.Name, s.Profile)
		}
		cfg.Register(e.fnID(i), prof)
		for _, d := range s.Deps {
			j := idx[d]
			e.deps[i] = append(e.deps[i], j)
			e.outs[j] = append(e.outs[j], i)
		}
	}
	return e, nil
}

// Stats returns a snapshot of the engine's counters.
func (e *WorkflowEngine) Stats() WorkflowStats { return e.stats }

// fnID names a stage's function on the target platform.
func (e *WorkflowEngine) fnID(i int) string { return e.wf.Name + "." + e.wf.Stages[i].Name }

// reinit prices re-deriving bytes locally (or through storage) instead of
// mapping them from the pool.
func (e *WorkflowEngine) reinit(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / reinitBandwidth * float64(time.Second))
}

// Run starts one workflow run at the current virtual time. Source stages
// fire immediately; each remaining stage fires when every dependency stage
// has fully finished (all replicas). onDone, if non-nil, observes the run's
// start and end times when the last stage completes.
func (e *WorkflowEngine) Run(onDone func(start, end simtime.Time)) {
	e.runs++
	e.stats.Runs++
	r := &wfRun{
		eng:           e,
		id:            e.runs,
		start:         e.cfg.Engine.Now(),
		pending:       make([]int, len(e.wf.Stages)),
		remaining:     make([]int, len(e.wf.Stages)),
		consumersLeft: make([]int, len(e.wf.Stages)),
		onDone:        onDone,
	}
	for i := range e.wf.Stages {
		r.pending[i] = len(e.deps[i])
		r.remaining[i] = e.wf.Stages[i].Width()
		r.consumersLeft[i] = len(e.outs[i])
	}
	for i := range e.wf.Stages {
		if r.pending[i] == 0 {
			r.launchStage(i)
		}
	}
}

// wfRun is the per-run dependency state.
type wfRun struct {
	eng   *WorkflowEngine
	id    int
	start simtime.Time
	// pending counts unfinished dependency stages per stage; remaining the
	// stage's unfinished replicas; consumersLeft the dependent stages that
	// have not yet finished consuming the stage's output region.
	pending       []int
	remaining     []int
	consumersLeft []int
	finished      int
	onDone        func(start, end simtime.Time)
}

// regionName names the shared region holding a stage's output for this run.
func (r *wfRun) regionName(i int) string {
	return fmt.Sprintf("%s/%d/%s", r.eng.wf.Name, r.id, r.eng.wf.Stages[i].Name)
}

// launchStage fires every replica of a ready stage.
func (r *wfRun) launchStage(i int) {
	for rep := 0; rep < r.eng.wf.Stages[i].Width(); rep++ {
		r.eng.cfg.Invoke(r.eng.fnID(i), r.hooksFor(i))
	}
}

// hooksFor builds one replica's hooks. The mapped-region list is closure
// state shared between StateIn and Done, so exactly what this invocation
// mapped is unmapped at its completion.
func (r *wfRun) hooksFor(i int) *StageHooks {
	var mapped []string
	h := &StageHooks{}
	h.StateIn = func(now simtime.Time) (time.Duration, int64) {
		lat, bytes, m := r.stateIn(now, i)
		mapped = m
		return lat, bytes
	}
	if r.eng.wf.Stages[i].OutBytes > 0 {
		h.StateOut = func(now simtime.Time) (time.Duration, int64) {
			return r.stateOut(now, i)
		}
	}
	h.Done = func(eng *simtime.Engine, fin simtime.Time) {
		for _, rn := range mapped {
			if err := r.eng.cfg.Shared.Unmap(fin, rn); err != nil {
				panic(err)
			}
		}
		r.replicaDone(i, fin)
	}
	return h
}

// stateIn prices one replica's input side: map each dependency's region
// (pool path), or re-derive the bytes (baseline, lost region, shortfall
// tail). Returns the added latency, the bytes moved, and the regions this
// replica now holds mapped.
func (r *wfRun) stateIn(now simtime.Time, i int) (time.Duration, int64, []string) {
	e := r.eng
	s := &e.wf.Stages[i]
	var lat time.Duration
	var bytes int64
	var mapped []string
	for _, d := range e.deps[i] {
		out := e.wf.Stages[d].OutBytes
		if out == 0 {
			continue
		}
		if !e.cfg.StatePassing {
			lat += e.reinit(out)
			bytes += out
			e.stats.Reinits++
			continue
		}
		rn := r.regionName(d)
		reg := e.cfg.Shared.Region(rn)
		if reg == nil {
			// The producer lost its region to a pool fault: replay the
			// producer's work locally.
			lat += e.reinit(out)
			bytes += out
			e.stats.Replays++
			continue
		}
		stall, err := e.cfg.Shared.Map(now, rn)
		if err != nil {
			// Region exists but the pool is unreachable right now.
			lat += e.reinit(out)
			bytes += out
			e.stats.Replays++
			continue
		}
		mapped = append(mapped, rn)
		resBytes := int64(reg.Resident()) * pagemem.DefaultPageSize
		lat += stall.Total
		bytes += resBytes
		if short := out - resBytes; short > 0 {
			// Quota/capacity shortfall at produce time: the missing tail is
			// re-derived by every consumer.
			lat += e.reinit(short)
			bytes += short
			e.stats.Reinits++
		}
		if s.DirtyBytes > 0 {
			br, err := e.cfg.Shared.WriteBreak(now, rn, e.fnID(i), s.DirtyBytes)
			if err != nil {
				lat += e.reinit(s.DirtyBytes)
				e.stats.Replays++
			} else {
				lat += br.Stall.Total
				bytes += int64(br.Private) * pagemem.DefaultPageSize
				e.stats.CowBreaks++
			}
		}
	}
	e.stats.StateInTime += lat
	e.stats.StateInBytes += bytes
	return lat, bytes, mapped
}

// stateOut prices the produce side: the first replica to execute creates
// the stage's output region (replicas stream into one region); the pool's
// link-FIFO completion is the critical-path cost. With state passing off —
// or the pool down — the producer hands the bytes to storage at
// reinitBandwidth instead, and consumers replay.
func (r *wfRun) stateOut(now simtime.Time, i int) (time.Duration, int64) {
	e := r.eng
	out := e.wf.Stages[i].OutBytes
	var lat time.Duration
	var bytes int64
	switch {
	case !e.cfg.StatePassing:
		lat = e.reinit(out)
		bytes = out
	default:
		rn := r.regionName(i)
		if e.cfg.Shared.Region(rn) != nil {
			// Another replica already produced the region.
			return 0, 0
		}
		_, res, err := e.cfg.Shared.Create(now, rn, e.fnID(i), out)
		if err != nil {
			// Pool down at produce time: fall back to storage; consumers
			// will find no region and replay.
			lat = e.reinit(out)
			bytes = out
		} else {
			if res.Done > now {
				lat = time.Duration(res.Done - now)
			}
			bytes = int64(res.Resident) * pagemem.DefaultPageSize
		}
	}
	e.stats.StateOutTime += lat
	e.stats.StateOutBytes += bytes
	return lat, bytes
}

// replicaDone advances the run's dependency state after one replica
// finished (its mappings already unmapped by the Done hook).
func (r *wfRun) replicaDone(i int, fin simtime.Time) {
	e := r.eng
	e.stats.Invocations++
	r.remaining[i]--
	if r.remaining[i] > 0 {
		return
	}
	// Stage i fully finished: its deps lose a consumer, its dependents lose
	// a pending dependency.
	for _, d := range e.deps[i] {
		r.consumersLeft[d]--
		if r.consumersLeft[d] == 0 {
			r.releaseRegion(d, fin)
		}
	}
	if r.consumersLeft[i] == 0 {
		// No dependents (sink with an output region): drop it now.
		r.releaseRegion(i, fin)
	}
	for _, j := range e.outs[i] {
		r.pending[j]--
		if r.pending[j] == 0 {
			r.launchStage(j)
		}
	}
	r.finished++
	if r.finished == len(e.wf.Stages) {
		e.stats.Completed++
		if r.onDone != nil {
			r.onDone(r.start, fin)
		}
	}
}

// releaseRegion releases a stage's output region if one was produced (the
// create may have failed under a fault plan, or passing may be off).
func (r *wfRun) releaseRegion(i int, fin simtime.Time) {
	e := r.eng
	if !e.cfg.StatePassing || e.wf.Stages[i].OutBytes == 0 {
		return
	}
	rn := r.regionName(i)
	if e.cfg.Shared.Region(rn) == nil {
		return
	}
	if err := e.cfg.Shared.Release(fin, rn); err != nil {
		panic(err)
	}
}
