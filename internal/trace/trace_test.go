package trace

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
)

func secs(vals ...float64) []simtime.Time {
	out := make([]simtime.Time, len(vals))
	for i, v := range vals {
		out[i] = simtime.Time(v * float64(time.Second))
	}
	return out
}

func TestDailyRateAndClass(t *testing.T) {
	f := &Function{ID: "f", Invocations: make([]simtime.Time, 600)}
	if got := f.DailyRate(24 * time.Hour); got != 600 {
		t.Fatalf("DailyRate = %v, want 600", got)
	}
	if f.Class(24*time.Hour) != HighLoad {
		t.Fatal("600/day should be high load")
	}
	lo := &Function{ID: "g", Invocations: make([]simtime.Time, 10)}
	if lo.Class(24*time.Hour) != LowLoad {
		t.Fatal("10/day should be low load")
	}
	mid := &Function{ID: "h", Invocations: make([]simtime.Time, 100)}
	if mid.Class(24*time.Hour) != MediumLoad {
		t.Fatal("100/day should be medium load")
	}
}

func TestClassifyBoundaries(t *testing.T) {
	if Classify(513) != HighLoad || Classify(512) != MediumLoad {
		t.Error("high boundary should be > 512")
	}
	if Classify(63.9) != LowLoad || Classify(64) != MediumLoad {
		t.Error("low boundary should be < 64")
	}
}

func TestLoadClassString(t *testing.T) {
	if LowLoad.String() != "low" || MediumLoad.String() != "medium" || HighLoad.String() != "high" {
		t.Error("LoadClass strings wrong")
	}
}

func TestIntervalStats(t *testing.T) {
	f := &Function{ID: "f", Invocations: secs(0, 10, 20, 30)}
	st := f.Intervals()
	if st.Mean != 10*time.Second {
		t.Errorf("Mean = %v, want 10s", st.Mean)
	}
	if st.Stddev != 0 {
		t.Errorf("Stddev = %v, want 0 for uniform gaps", st.Stddev)
	}
	// Fewer than 2 invocations → zero stats.
	if (&Function{Invocations: secs(5)}).Intervals() != (IntervalStats{}) {
		t.Error("single invocation should yield zero stats")
	}
}

func TestIntervalStatsVariance(t *testing.T) {
	f := &Function{ID: "f", Invocations: secs(0, 1, 11)} // gaps 1s, 10s
	st := f.Intervals()
	if st.Mean != 5500*time.Millisecond {
		t.Errorf("Mean = %v, want 5.5s", st.Mean)
	}
	if st.Stddev != 4500*time.Millisecond {
		t.Errorf("Stddev = %v, want 4.5s", st.Stddev)
	}
}

func TestRequestsPerMinute(t *testing.T) {
	f := &Function{Invocations: make([]simtime.Time, 120)}
	if got := f.RequestsPerMinute(time.Hour); got != 2 {
		t.Errorf("RPM = %v, want 2", got)
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := &Trace{Duration: time.Hour, Functions: []*Function{
		{ID: "a", Invocations: secs(1, 2)},
		{ID: "b", Invocations: secs(3)},
	}}
	if tr.TotalInvocations() != 3 {
		t.Errorf("TotalInvocations = %d", tr.TotalInvocations())
	}
	if tr.Find("b") == nil || tr.Find("zzz") != nil {
		t.Error("Find misbehaves")
	}
}

func TestValidate(t *testing.T) {
	good := &Trace{Duration: time.Hour, Functions: []*Function{{ID: "a", Invocations: secs(1, 2)}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	cases := []*Trace{
		{Duration: 0},
		{Duration: time.Hour, Functions: []*Function{{ID: ""}}},
		{Duration: time.Hour, Functions: []*Function{{ID: "a"}, {ID: "a"}}},
		{Duration: time.Hour, Functions: []*Function{{ID: "a", Invocations: secs(5, 3)}}},
		{Duration: time.Hour, Functions: []*Function{{ID: "a", Invocations: secs(4000)}}},
	}
	for i, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{NumFunctions: 20, Duration: 2 * time.Hour}
	a := Generate(cfg, 7)
	b := Generate(cfg, 7)
	if a.TotalInvocations() != b.TotalInvocations() {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.Functions {
		if len(a.Functions[i].Invocations) != len(b.Functions[i].Invocations) {
			t.Fatalf("function %d lengths differ", i)
		}
	}
	c := Generate(cfg, 8)
	if a.TotalInvocations() == c.TotalInvocations() {
		t.Log("different seeds produced equal totals (unlikely but possible)")
	}
}

func TestGenerateValidates(t *testing.T) {
	tr := Generate(GenConfig{NumFunctions: 50, Duration: 6 * time.Hour}, 3)
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if len(tr.Functions) != 50 {
		t.Fatalf("generated %d functions, want 50", len(tr.Functions))
	}
}

func TestGenerateDefaults(t *testing.T) {
	tr := Generate(GenConfig{}, 1)
	if len(tr.Functions) != 424 {
		t.Fatalf("default functions = %d, want 424", len(tr.Functions))
	}
	if tr.Duration != 24*time.Hour {
		t.Fatalf("default duration = %v", tr.Duration)
	}
}

func TestGeneratePopulatesAllClasses(t *testing.T) {
	tr := Generate(GenConfig{NumFunctions: 424, Duration: 24 * time.Hour}, 11)
	byClass := tr.ByClass()
	for _, c := range []LoadClass{LowLoad, MediumLoad, HighLoad} {
		if len(byClass[c]) == 0 {
			t.Errorf("no %v-load functions generated", c)
		}
	}
}

func TestGenerateFunctionMeanGap(t *testing.T) {
	f := GenerateFunction("f", 10*time.Hour, time.Minute, false, 5)
	// Expect roughly 600 invocations over 10h at 1/min; tolerate ±40%.
	n := len(f.Invocations)
	if n < 360 || n > 840 {
		t.Errorf("invocations = %d, want ~600", n)
	}
}

func TestGenerateBurstyHasHigherVariance(t *testing.T) {
	smooth := GenerateFunction("s", 12*time.Hour, 30*time.Second, false, 9)
	bursty := GenerateFunction("b", 12*time.Hour, 30*time.Second, true, 9)
	fs, fb := smooth.Intervals(), bursty.Intervals()
	// Bursty traffic should have a larger coefficient of variation.
	cvS := float64(fs.Stddev) / float64(fs.Mean)
	cvB := float64(fb.Stddev) / float64(fb.Mean)
	if cvB <= cvS {
		t.Errorf("bursty CV %.2f not larger than smooth CV %.2f", cvB, cvS)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := Generate(GenConfig{NumFunctions: 5, Duration: time.Hour}, 2)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalInvocations() != tr.TotalInvocations() || got.Duration != tr.Duration {
		t.Fatal("round trip changed the trace")
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{\"duration\": -5}")); err == nil {
		t.Error("invalid trace decoded without error")
	}
	if _, err := Read(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	tr := Generate(GenConfig{NumFunctions: 3, Duration: time.Hour}, 4)
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalInvocations() != tr.TotalInvocations() {
		t.Fatal("Save/Load changed the trace")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loading missing file should fail")
	}
}
