package telemetry

import (
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("faasmem_requests_total", "completed requests").Add(42)
	r.Gauge("faasmem_live_containers", "live containers").Set(3)
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	want := "# HELP faasmem_live_containers live containers\n" +
		"# TYPE faasmem_live_containers gauge\n" +
		"faasmem_live_containers 3\n" +
		"# HELP faasmem_requests_total completed requests\n" +
		"# TYPE faasmem_requests_total counter\n" +
		"faasmem_requests_total 42\n"
	if b.String() != want {
		t.Fatalf("exposition format drifted:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestWritePrometheusEmptyAndNil(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, NewRegistry()); err != nil || b.Len() != 0 {
		t.Fatalf("empty registry: err=%v out=%q", err, b.String())
	}
	var nilReg *Registry
	if err := WritePrometheus(&b, nilReg); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry: err=%v out=%q", err, b.String())
	}
}

func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`say "hi"`, `say \"hi\"`},
		{"two\nlines", `two\nlines`},
		{"\\\"\n", `\\\"\n`},
		{"", ""},
	}
	for _, c := range cases {
		if got := EscapeLabelValue(c.in); got != c.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
