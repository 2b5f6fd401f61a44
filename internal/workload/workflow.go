package workload

import (
	"encoding/json"
	"fmt"
	"math"
)

// Stage is one node of a workflow DAG: a benchmark profile invoked once (or
// Replicas times, for fan-out stages) after every dependency finished. A
// stage's intermediate output is produced into a named shared-state region
// in the pool; downstream stages map that region instead of re-deriving the
// bytes.
type Stage struct {
	// Name identifies the stage inside its workflow.
	Name string
	// Profile names the benchmark profile (workload.ByName) the stage runs.
	Profile string
	// Deps lists upstream stage names whose output regions this stage maps
	// before executing. Empty for source stages.
	Deps []string
	// OutBytes is the intermediate state the stage produces into its output
	// region for downstream consumers. Zero for sinks (and stages whose
	// result is returned, not passed).
	OutBytes int64
	// DirtyBytes is how many bytes the stage writes into its mapped
	// upstream regions, breaking the read-sharing copy-on-write (web
	// session caches). Zero for read-only consumers.
	DirtyBytes int64
	// Replicas is the stage's fan-out width: how many parallel invocations
	// run, each mapping the dependency regions independently. Zero means 1.
	Replicas int
}

// Width returns the stage's effective replica count.
func (s *Stage) Width() int {
	if s.Replicas <= 0 {
		return 1
	}
	return s.Replicas
}

// Workflow is a DAG of stages invoked as one logical request chain.
type Workflow struct {
	// Name identifies the workflow.
	Name string
	// Stages in declaration order. Dependencies may only reference other
	// stages in the same workflow; Validate rejects cycles.
	Stages []Stage
}

// Validate checks the DAG: non-empty names, known unique stages, resolvable
// dependencies, non-negative sizes, and acyclicity (Kahn's algorithm — a
// leftover stage after peeling zero-in-degree nodes means a cycle).
func (w *Workflow) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: workflow without name")
	}
	if len(w.Stages) == 0 {
		return fmt.Errorf("workload: workflow %s: no stages", w.Name)
	}
	idx := make(map[string]int, len(w.Stages))
	for i := range w.Stages {
		s := &w.Stages[i]
		if s.Name == "" {
			return fmt.Errorf("workload: workflow %s: stage %d without name", w.Name, i)
		}
		if _, dup := idx[s.Name]; dup {
			return fmt.Errorf("workload: workflow %s: duplicate stage %q", w.Name, s.Name)
		}
		idx[s.Name] = i
		if s.Profile == "" {
			return fmt.Errorf("workload: workflow %s: stage %q without profile", w.Name, s.Name)
		}
		if s.OutBytes < 0 {
			return fmt.Errorf("workload: workflow %s: stage %q: negative output size", w.Name, s.Name)
		}
		if s.DirtyBytes < 0 {
			return fmt.Errorf("workload: workflow %s: stage %q: negative dirty size", w.Name, s.Name)
		}
		if s.Replicas < 0 {
			return fmt.Errorf("workload: workflow %s: stage %q: negative replicas", w.Name, s.Name)
		}
	}
	for i := range w.Stages {
		s := &w.Stages[i]
		for _, d := range s.Deps {
			j, ok := idx[d]
			if !ok {
				return fmt.Errorf("workload: workflow %s: stage %q depends on unknown stage %q", w.Name, s.Name, d)
			}
			if j == i {
				return fmt.Errorf("workload: workflow %s: stage %q depends on itself", w.Name, s.Name)
			}
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns stage indices in a dependency-respecting order,
// deterministic for a given workflow (ready stages are taken in declaration
// order). Returns an error naming a cycle member if the DAG has a cycle.
func (w *Workflow) TopoOrder() ([]int, error) {
	n := len(w.Stages)
	idx := make(map[string]int, n)
	for i := range w.Stages {
		idx[w.Stages[i].Name] = i
	}
	indeg := make([]int, n)
	out := make([][]int, n)
	for i := range w.Stages {
		for _, d := range w.Stages[i].Deps {
			j := idx[d]
			indeg[i]++
			out[j] = append(out[j], i)
		}
	}
	order := make([]int, 0, n)
	// Peel in passes over declaration order: deterministic without a heap.
	done := make([]bool, n)
	for len(order) < n {
		progressed := false
		for i := 0; i < n; i++ {
			if done[i] || indeg[i] > 0 {
				continue
			}
			done[i] = true
			progressed = true
			order = append(order, i)
			for _, j := range out[i] {
				indeg[j]--
			}
		}
		if !progressed {
			for i := 0; i < n; i++ {
				if !done[i] {
					return nil, fmt.Errorf("workload: workflow %s: cycle through stage %q", w.Name, w.Stages[i].Name)
				}
			}
		}
	}
	return order, nil
}

// workflowJSON / stageJSON are the serialized forms: sizes in MB, matching
// the profile schema.
type workflowJSON struct {
	Name   string      `json:"name"`
	Stages []stageJSON `json:"stages"`
}

type stageJSON struct {
	Name     string   `json:"name"`
	Profile  string   `json:"profile"`
	Deps     []string `json:"deps,omitempty"`
	OutMB    float64  `json:"out_mb,omitempty"`
	DirtyMB  float64  `json:"dirty_mb,omitempty"`
	Replicas int      `json:"replicas,omitempty"`
}

// MarshalJSON implements json.Marshaler with the human-readable schema.
func (w *Workflow) MarshalJSON() ([]byte, error) {
	j := workflowJSON{Name: w.Name, Stages: make([]stageJSON, len(w.Stages))}
	for i := range w.Stages {
		s := &w.Stages[i]
		j.Stages[i] = stageJSON{
			Name: s.Name, Profile: s.Profile, Deps: s.Deps,
			OutMB:   float64(s.OutBytes) / MB,
			DirtyMB: float64(s.DirtyBytes) / MB,
		}
		if s.Replicas > 1 {
			j.Stages[i].Replicas = s.Replicas
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler and validates the result,
// rejecting NaN/Inf and negative sizes with descriptive errors before the
// structural Validate pass.
func (w *Workflow) UnmarshalJSON(data []byte) error {
	var j workflowJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("workload: workflow: %w", err)
	}
	w.Name = j.Name
	w.Stages = make([]Stage, len(j.Stages))
	for i, sj := range j.Stages {
		if err := checkMB(sj.OutMB, "workflow "+j.Name, sj.Name, "out_mb"); err != nil {
			return err
		}
		if err := checkMB(sj.DirtyMB, "workflow "+j.Name, sj.Name, "dirty_mb"); err != nil {
			return err
		}
		w.Stages[i] = Stage{
			Name: sj.Name, Profile: sj.Profile, Deps: sj.Deps,
			OutBytes:   mbToBytes(sj.OutMB),
			DirtyBytes: mbToBytes(sj.DirtyMB),
			Replicas:   sj.Replicas,
		}
	}
	return w.Validate()
}

// checkMB rejects non-finite and negative MB fields at decode time.
func checkMB(v float64, scope, name, field string) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("workload: %s: stage %q: %s must be finite, got %v", scope, name, field, v)
	}
	if v < 0 {
		return fmt.Errorf("workload: %s: stage %q: %s must be non-negative, got %v", scope, name, field, v)
	}
	return nil
}

// Workflows returns the built-in chained profiles: the state-passing shapes
// the ext-stateful experiment sweeps. Every referenced profile exists in
// Profiles(); replicas mark fan-out stages whose width the experiment
// overrides.
func Workflows() []*Workflow {
	return []*Workflow{
		{
			// ETL pipeline: each stage consumes its predecessor's output.
			Name: "pipeline",
			Stages: []Stage{
				{Name: "extract", Profile: "json", OutBytes: 48 * MB},
				{Name: "transform", Profile: "chameleon", Deps: []string{"extract"}, OutBytes: 32 * MB},
				{Name: "render", Profile: "image", Deps: []string{"transform"}, OutBytes: 12 * MB},
				{Name: "serve", Profile: "web", Deps: []string{"render"}},
			},
		},
		{
			// Fan-out/fan-in: N workers map one broadcast region, the join
			// maps the workers' combined output.
			Name: "fanout",
			Stages: []Stage{
				{Name: "source", Profile: "json", OutBytes: 64 * MB},
				{Name: "fan", Profile: "matmul", Deps: []string{"source"}, OutBytes: 16 * MB, Replicas: 4},
				{Name: "join", Profile: "json", Deps: []string{"fan"}},
			},
		},
		{
			// Map-reduce aggregation: mappers share the split input, the
			// reducer aggregates their output region.
			Name: "mapreduce",
			Stages: []Stage{
				{Name: "split", Profile: "json", OutBytes: 96 * MB},
				{Name: "map", Profile: "gzip", Deps: []string{"split"}, OutBytes: 24 * MB, Replicas: 6},
				{Name: "reduce", Profile: "graph", Deps: []string{"map"}},
			},
		},
		{
			// ML inference pipeline: preprocessed tensors flow into the
			// model stage, predictions into postprocessing.
			Name: "mlpipeline",
			Stages: []Stage{
				{Name: "preprocess", Profile: "image", OutBytes: 40 * MB},
				{Name: "infer", Profile: "bert", Deps: []string{"preprocess"}, OutBytes: 4 * MB},
				{Name: "postprocess", Profile: "json", Deps: []string{"infer"}},
			},
		},
		{
			// Web session cache: handlers map a shared session region and
			// write back a small dirty set (copy-on-write unshare).
			Name: "websession",
			Stages: []Stage{
				{Name: "session", Profile: "web", OutBytes: 32 * MB},
				{Name: "handler", Profile: "web", Deps: []string{"session"}, DirtyBytes: 2 * MB, Replicas: 4},
			},
		},
	}
}

// WorkflowByName returns the built-in workflow with the given name.
func WorkflowByName(name string) (*Workflow, error) {
	for _, w := range Workflows() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown workflow %q", name)
}

// WorkflowNames lists the built-in workflow names in order.
func WorkflowNames() []string {
	ws := Workflows()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}
