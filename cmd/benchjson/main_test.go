package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: github.com/faasmem/faasmem
BenchmarkFig1KeepAliveSweep-4   	       3	  33521969 ns/op	23327176 B/op	   46988 allocs/op
BenchmarkAblationPolicies/baseline-4         	      10	   1200000 ns/op
BenchmarkAblationRequestWindow/adaptive-4    	       5	   2000000 ns/op	       512.0 avgMB	       42.0 faults
some unrelated log line
PASS
ok  	github.com/faasmem/faasmem	12.3s
`
	results, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(results), results)
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	fig1, ok := byName["Fig1KeepAliveSweep"]
	if !ok {
		t.Fatalf("Fig1KeepAliveSweep missing (GOMAXPROCS suffix not stripped?): %+v", results)
	}
	if fig1.Iterations != 3 || fig1.NsPerOp != 33521969 || fig1.BytesPerOp != 23327176 || fig1.AllocsOp != 46988 {
		t.Errorf("Fig1 parsed wrong: %+v", fig1)
	}
	if _, ok := byName["AblationPolicies/baseline"]; !ok {
		t.Errorf("sub-benchmark name not preserved: %+v", results)
	}
	rw := byName["AblationRequestWindow/adaptive"]
	if rw.Metrics["avgMB"] != 512 || rw.Metrics["faults"] != 42 {
		t.Errorf("custom metrics not captured: %+v", rw)
	}
}

func TestSpeedups(t *testing.T) {
	base := []Result{
		{Name: "Fig1KeepAliveSweep", NsPerOp: 33521969},
		{Name: "OnlyInBaseline", NsPerOp: 100},
	}
	cur := []Result{
		{Name: "Fig1KeepAliveSweep", NsPerOp: 10182569},
		{Name: "OnlyInCurrent", NsPerOp: 50},
	}
	s := speedups(base, cur)
	if len(s) != 1 {
		t.Fatalf("speedups = %v, want 1 shared entry", s)
	}
	if got := s["Fig1KeepAliveSweep"]; got < 3.0 || got > 3.6 {
		t.Errorf("Fig1 speedup = %.2f, want ~3.29", got)
	}
}

func TestLoadLatestPicksHighestNumber(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, res []Result) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(Doc{Benchmarks: res})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("BENCH_BASELINE.json", []Result{{Name: "A", NsPerOp: 1}})
	write("BENCH_2.json", []Result{{Name: "A", NsPerOp: 2}})
	write("BENCH_10.json", []Result{{Name: "A", NsPerOp: 10}})
	out := write("BENCH_11.json", []Result{{Name: "A", NsPerOp: 11}})

	// BENCH_11 is the -o target and must be skipped; BENCH_10 beats BENCH_2
	// numerically even though it sorts earlier lexicographically, and the
	// baseline has no numeric suffix so it never wins.
	path, prior, err := loadLatest(filepath.Join(dir, "BENCH_*.json"), out)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_10.json" {
		t.Fatalf("picked %s, want BENCH_10.json", path)
	}
	if len(prior) != 1 || prior[0].NsPerOp != 10 {
		t.Fatalf("prior = %+v, want the BENCH_10 results", prior)
	}

	path, _, err = loadLatest(filepath.Join(dir, "NOPE_*.json"), "")
	if err != nil || path != "" {
		t.Fatalf("empty glob: path=%q err=%v, want no match and no error", path, err)
	}
}

func TestCheckAllocs(t *testing.T) {
	prior := []Result{
		{Name: "Big", AllocsOp: 1000},
		{Name: "Tiny", AllocsOp: 4},
		{Name: "Gone", AllocsOp: 50},
	}
	var buf bytes.Buffer
	// 25% over on a large count trips the 10% gate.
	if checkAllocs(&buf, "x.json", prior, []Result{{Name: "Big", AllocsOp: 1250}}, 10) {
		t.Errorf("25%% regression on 1000 allocs passed the 10%% gate:\n%s", buf.String())
	}
	// A single extra allocation on a tiny count is inside the absolute slack.
	if !checkAllocs(&buf, "x.json", prior, []Result{{Name: "Tiny", AllocsOp: 5}}, 10) {
		t.Errorf("4 -> 5 allocs tripped the gate despite the slack:\n%s", buf.String())
	}
	// Improvements and benchmarks absent from the snapshot pass.
	if !checkAllocs(&buf, "x.json", prior, []Result{
		{Name: "Big", AllocsOp: 100},
		{Name: "New", AllocsOp: 1e6},
	}, 10) {
		t.Errorf("improvement + new benchmark tripped the gate:\n%s", buf.String())
	}
}

func TestParseLineRejectsChatter(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	github.com/faasmem/faasmem	12.3s",
		"Benchmarking is fun",
		"BenchmarkBroken notanumber 5 ns/op",
		"",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

func TestNextSnapshot(t *testing.T) {
	for in, want := range map[string]string{
		"BENCH_3.json":              "BENCH_4.json",
		"BENCH_9.json":              "BENCH_10.json",
		"dir/BENCH_2/BENCH_41.json": "dir/BENCH_2/BENCH_42.json",
	} {
		if got := nextSnapshot(in); got != want {
			t.Errorf("nextSnapshot(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCompareAB parses two alternately run logs, with chatter between runs
// and a benchmark only one side ran, and checks the quartiles, the paired
// wins and the printed row.
func TestCompareAB(t *testing.T) {
	base := `BenchmarkScan-2   	 100	  100 ns/op	 0 B/op	 0 allocs/op
PASS
BenchmarkScan-2   	 100	  300 ns/op
BenchmarkOnlyBase-2   	 100	  7 ns/op
BenchmarkScan-2   	 100	  200 ns/op
BenchmarkScan-2   	 100	  400 ns/op
`
	cur := `BenchmarkScan-2   	 100	  90 ns/op
BenchmarkScan-2   	 100	  310 ns/op
BenchmarkScan-2   	 100	  150 ns/op
BenchmarkScan-2   	 100	  100 ns/op
`
	names, b, err := parseRuns(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "Scan" || names[1] != "OnlyBase" {
		t.Fatalf("names = %v, want [Scan OnlyBase]", names)
	}
	if got := b["Scan"]; len(got) != 4 || got[1] != 300 {
		t.Fatalf("Scan samples = %v, want 4 in stream order", got)
	}
	_, c, err := parseRuns(strings.NewReader(cur))
	if err != nil {
		t.Fatal(err)
	}
	rows := compareAB(names, b, c)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v, want only Scan", rows)
	}
	r := rows[0]
	// Base sorted 100 200 300 400: q1 175, median 250, q3 325. New sorted
	// 90 100 150 310: q1 97.5, median 125, q3 190. New wins runs 1, 3, 4.
	if r.Base != [3]float64{175, 250, 325} || r.New != [3]float64{97.5, 125, 190} || r.Wins != 3 || r.Pairs != 4 {
		t.Fatalf("row = %+v", r)
	}
	var out bytes.Buffer
	writeAB(&out, rows)
	if line := strings.Fields(strings.Split(out.String(), "\n")[1]); line[0] != "Scan" || line[1] != "250" || line[4] != "125" || line[7] != "-50.0%" || line[8] != "3/4" {
		t.Fatalf("row printed as %q", out.String())
	}
}

func TestQuartilesOneSample(t *testing.T) {
	if q := quartiles([]float64{42}); q != [3]float64{42, 42, 42} {
		t.Fatalf("quartiles of one sample = %v", q)
	}
}
