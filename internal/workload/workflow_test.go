package workload

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestBuiltinWorkflowsValid(t *testing.T) {
	names := map[string]bool{}
	for _, w := range Workflows() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if names[w.Name] {
			t.Errorf("duplicate workflow name %q", w.Name)
		}
		names[w.Name] = true
		for _, s := range w.Stages {
			if ByName(s.Profile) == nil {
				t.Errorf("%s/%s: unknown profile %q", w.Name, s.Name, s.Profile)
			}
		}
		if _, err := WorkflowByName(w.Name); err != nil {
			t.Errorf("WorkflowByName(%s): %v", w.Name, err)
		}
	}
	if len(WorkflowNames()) != len(Workflows()) {
		t.Fatal("WorkflowNames length mismatch")
	}
	if _, err := WorkflowByName("nope"); err == nil {
		t.Fatal("WorkflowByName(nope) succeeded")
	}
}

func TestWorkflowValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		w    Workflow
		want string
	}{
		{"no name", Workflow{}, "without name"},
		{"no stages", Workflow{Name: "w"}, "no stages"},
		{"unnamed stage", Workflow{Name: "w", Stages: []Stage{{Profile: "json"}}}, "without name"},
		{"dup stage", Workflow{Name: "w", Stages: []Stage{
			{Name: "a", Profile: "json"}, {Name: "a", Profile: "json"},
		}}, "duplicate stage"},
		{"no profile", Workflow{Name: "w", Stages: []Stage{{Name: "a"}}}, "without profile"},
		{"negative out", Workflow{Name: "w", Stages: []Stage{
			{Name: "a", Profile: "json", OutBytes: -1},
		}}, "negative output"},
		{"negative dirty", Workflow{Name: "w", Stages: []Stage{
			{Name: "a", Profile: "json", DirtyBytes: -1},
		}}, "negative dirty"},
		{"negative replicas", Workflow{Name: "w", Stages: []Stage{
			{Name: "a", Profile: "json", Replicas: -2},
		}}, "negative replicas"},
		{"unknown dep", Workflow{Name: "w", Stages: []Stage{
			{Name: "a", Profile: "json", Deps: []string{"ghost"}},
		}}, "unknown stage"},
		{"self dep", Workflow{Name: "w", Stages: []Stage{
			{Name: "a", Profile: "json", Deps: []string{"a"}},
		}}, "depends on itself"},
		{"cycle", Workflow{Name: "w", Stages: []Stage{
			{Name: "a", Profile: "json", Deps: []string{"b"}},
			{Name: "b", Profile: "json", Deps: []string{"a"}},
		}}, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.w.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err=%v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestTopoOrderDeterministicAndCorrect(t *testing.T) {
	w := Workflow{Name: "diamond", Stages: []Stage{
		{Name: "d", Profile: "json", Deps: []string{"b", "c"}},
		{Name: "b", Profile: "json", Deps: []string{"a"}},
		{Name: "c", Profile: "json", Deps: []string{"a"}},
		{Name: "a", Profile: "json"},
	}}
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := map[string]int{}
	for at, i := range order {
		pos[w.Stages[i].Name] = at
	}
	for _, s := range w.Stages {
		for _, d := range s.Deps {
			if pos[d] >= pos[s.Name] {
				t.Fatalf("dep %s not before %s in %v", d, s.Name, order)
			}
		}
	}
	again, _ := w.TopoOrder()
	for i := range order {
		if order[i] != again[i] {
			t.Fatalf("TopoOrder not deterministic: %v vs %v", order, again)
		}
	}
}

func TestWorkflowJSONRoundTrip(t *testing.T) {
	for _, w := range Workflows() {
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("%s: marshal: %v", w.Name, err)
		}
		var back Workflow
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", w.Name, err)
		}
		if back.Name != w.Name || len(back.Stages) != len(w.Stages) {
			t.Fatalf("%s: round trip mangled shape", w.Name)
		}
		for i := range w.Stages {
			a, b := w.Stages[i], back.Stages[i]
			if a.Name != b.Name || a.Profile != b.Profile || a.OutBytes != b.OutBytes ||
				a.DirtyBytes != b.DirtyBytes || a.Width() != b.Width() {
				t.Fatalf("%s: stage %d differs: %+v vs %+v", w.Name, i, a, b)
			}
		}
	}
}

func TestWorkflowJSONRejectsBadSizes(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"negative out", `{"name":"w","stages":[{"name":"a","profile":"json","out_mb":-3}]}`, "non-negative"},
		{"negative dirty", `{"name":"w","stages":[{"name":"a","profile":"json","dirty_mb":-0.5}]}`, "non-negative"},
		{"cycle", `{"name":"w","stages":[{"name":"a","profile":"json","deps":["b"]},{"name":"b","profile":"json","deps":["a"]}]}`, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w Workflow
			err := json.Unmarshal([]byte(tc.body), &w)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err=%v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestWorkflowInvocations(t *testing.T) {
	w, err := WorkflowByName("fanout")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := range w.Stages {
		got += w.Stages[i].Width()
	}
	if got != 6 { // source + 4 fan replicas + join
		t.Fatalf("Invocations=%d, want 6", got)
	}
}

func TestProfileJSONRejectsBadFields(t *testing.T) {
	base := func(overrides string) string {
		return `{"name":"p","language":"python","cpu_share":0.1,"runtime_mb":10,
			"runtime_hot_mb":1,"init_mb":5,"init_hot_mb":1,"pattern":"fixed-hot",
			"exec_mb":1,"exec_time_sec":0.1,"init_time_sec":0.1,"launch_time_sec":0.1,
			"quota_mb":64` + overrides + `}`
	}
	cases := []struct {
		name, body, want string
	}{
		{"negative runtime", base(`,"runtime_mb":-10`), "runtime_mb must be non-negative"},
		{"negative init", base(`,"init_mb":-1`), "init_mb must be non-negative"},
		{"negative exec time", base(`,"exec_time_sec":-0.5`), "exec_time_sec must be non-negative"},
		{"negative launch time", base(`,"launch_time_sec":-2`), "launch_time_sec must be non-negative"},
		{"negative quota", base(`,"quota_mb":-64`), "quota_mb must be non-negative"},
		{"huge exponent", base(`,"init_mb":1e309`), ""}, // json itself rejects out-of-range floats
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p Profile
			err := json.Unmarshal([]byte(tc.body), &p)
			if err == nil {
				t.Fatal("decode succeeded")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err=%v, want substring %q", err, tc.want)
			}
		})
	}
	// A clean profile still decodes.
	var p Profile
	if err := json.Unmarshal([]byte(base("")), &p); err != nil {
		t.Fatalf("clean profile rejected: %v", err)
	}
}
