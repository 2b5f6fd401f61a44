// Command benchjson converts `go test -bench` output into a machine-readable
// JSON document, one entry per benchmark with its ns/op, B/op, allocs/op and
// any custom ReportMetric units. The CI regression gate and `make bench-json`
// use it to snapshot benchmark results (BENCH_2.json) so perf changes show up
// in review as a diff instead of a buried log line.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -o BENCH_3.json
//	benchjson -o BENCH_3.json bench_output.txt
//	go test -bench=. -benchmem . | benchjson -latest 'BENCH_*.json'
//
// Lines that are not benchmark results (test chatter, PASS/ok trailers) are
// ignored, so the full `go test` stream can be piped in unfiltered.
//
// With -latest GLOB the tool also loads the most recent committed snapshot
// matching the glob (highest numeric suffix, the -o target excluded) and
// prints a per-benchmark ns/op speedup table to stderr. Without -o it then
// writes the next snapshot in that sequence (BENCH_3.json → BENCH_4.json),
// so no committed snapshot is overwritten. -allocs-gate PCT turns that
// comparison into a regression gate: the exit status is nonzero if any
// benchmark's allocs/op grew more than PCT percent over the snapshot.
//
// With -ab the tool compares two logs of the same benchmarks run
// alternately, several times each (`make bench-ab` writes them):
//
//	benchjson -ab base.log new.log
//
// It prints, per benchmark, the median ns/op and quartiles of each side,
// the change of the medians, and in how many runs, paired by run index, the
// new side was faster. It gates nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's parsed measurements. Metrics maps the unit
// string (e.g. "ns/op", "B/op", "avgMB") to its value.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the emitted JSON document. When a baseline snapshot is supplied the
// prior results are embedded and per-benchmark ns/op speedups computed, so
// the regression gate is one file.
type Doc struct {
	Benchmarks []Result `json:"benchmarks"`
	Baseline   []Result `json:"baseline,omitempty"`
	// SpeedupVsBaseline maps benchmark name to baseline ns/op ÷ current
	// ns/op (> 1 means faster now).
	SpeedupVsBaseline map[string]float64 `json:"speedup_vs_baseline,omitempty"`
}

// gomaxprocsSuffix strips the trailing "-N" CPU count go test appends, so the
// JSON keys stay stable across machines with different core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	out := flag.String("o", "", "write JSON here (default: the snapshot after the -latest match, else stdout)")
	baseline := flag.String("baseline", "", "prior benchjson snapshot to embed and compute ns/op speedups against (missing file is skipped)")
	latest := flag.String("latest", "", "glob of committed snapshots; compare against the highest-numbered match (excluding -o) and print per-bench speedups")
	allocsGate := flag.Float64("allocs-gate", 0, "with -latest: exit nonzero if any benchmark's allocs/op regressed more than this percentage")
	ab := flag.Bool("ab", false, "compare two alternately run logs, BASE NEW: per-bench median ns/op, quartiles and paired wins")
	flag.Parse()

	if *ab {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -ab BASE.log NEW.log")
			os.Exit(2)
		}
		var sides [2]map[string][]float64
		var names []string
		for i := range sides {
			f, err := os.Open(flag.Arg(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			var order []string
			order, sides[i], err = parseRuns(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if i == 0 {
				names = order
			}
		}
		rows := compareAB(names, sides[0], sides[1])
		if len(rows) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: no benchmark appears in both logs")
			os.Exit(1)
		}
		writeAB(os.Stdout, rows)
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	results, err := Parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	doc := Doc{Benchmarks: results}
	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			if os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "benchjson: baseline %s not found, skipping comparison\n", *baseline)
			} else {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			doc.Baseline = base
			doc.SpeedupVsBaseline = speedups(base, results)
		}
	}

	gateOK := true
	if *latest != "" {
		path, prior, err := loadLatest(*latest, *out)
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		case path == "":
			fmt.Fprintf(os.Stderr, "benchjson: no snapshot matches %q, skipping comparison\n", *latest)
		default:
			printComparison(os.Stderr, path, prior, results)
			if *allocsGate > 0 {
				gateOK = checkAllocs(os.Stderr, path, prior, results, *allocsGate)
			}
			if *out == "" {
				*out = nextSnapshot(path)
			}
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", *out)
	}
	if !gateOK {
		os.Exit(1)
	}
}

// snapshotNum extracts the numeric suffix of BENCH_<n>.json-style names.
var snapshotNum = regexp.MustCompile(`_(\d+)\.json$`)

// loadLatest resolves the glob to the snapshot with the highest numeric
// suffix, skipping the output target and files without a numeric suffix
// (e.g. BENCH_BASELINE.json). It returns ("" , nil, nil) when nothing
// matches, so a fresh checkout degrades to a plain conversion.
func loadLatest(glob, exclude string) (string, []Result, error) {
	matches, err := filepath.Glob(glob)
	if err != nil {
		return "", nil, fmt.Errorf("benchjson: bad -latest glob: %v", err)
	}
	best, bestN := "", -1
	for _, m := range matches {
		if exclude != "" && filepath.Clean(m) == filepath.Clean(exclude) {
			continue
		}
		sub := snapshotNum.FindStringSubmatch(m)
		if sub == nil {
			continue
		}
		if n, err := strconv.Atoi(sub[1]); err == nil && n > bestN {
			best, bestN = m, n
		}
	}
	if best == "" {
		return "", nil, nil
	}
	prior, err := loadBaseline(best)
	if err != nil {
		return "", nil, err
	}
	return best, prior, nil
}

// nextSnapshot names the snapshot after path in its numbered sequence:
// BENCH_3.json → BENCH_4.json. path must carry a numeric suffix.
func nextSnapshot(path string) string {
	loc := snapshotNum.FindStringSubmatchIndex(path)
	n, _ := strconv.Atoi(path[loc[2]:loc[3]])
	return path[:loc[2]] + strconv.Itoa(n+1) + path[loc[3]:]
}

// printComparison writes a per-benchmark ns/op speedup table versus the
// prior snapshot (>1.00x means this run is faster).
func printComparison(w io.Writer, path string, prior, cur []Result) {
	priorBy := make(map[string]Result, len(prior))
	for _, r := range prior {
		priorBy[r.Name] = r
	}
	fmt.Fprintf(w, "benchjson: vs %s (ns/op, speedup >1 is faster):\n", path)
	for _, r := range cur {
		p, ok := priorBy[r.Name]
		if !ok || p.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		fmt.Fprintf(w, "  %-44s %14.0f -> %12.0f  %6.2fx\n",
			r.Name, p.NsPerOp, r.NsPerOp, p.NsPerOp/r.NsPerOp)
	}
}

// checkAllocs fails benchmarks whose allocs/op grew more than pct percent
// over the prior snapshot. A small absolute slack (8 allocs) keeps tiny
// deterministic counts — where a single extra allocation clears any
// percentage bar — from tripping the gate.
func checkAllocs(w io.Writer, path string, prior, cur []Result, pct float64) bool {
	const slack = 8
	priorBy := make(map[string]Result, len(prior))
	for _, r := range prior {
		priorBy[r.Name] = r
	}
	ok := true
	for _, r := range cur {
		p, found := priorBy[r.Name]
		if !found {
			continue
		}
		limit := p.AllocsOp * (1 + pct/100)
		if r.AllocsOp > limit && r.AllocsOp > p.AllocsOp+slack {
			fmt.Fprintf(w, "benchjson: ALLOCS REGRESSION %s: %.0f allocs/op vs %.0f in %s (>%.0f%% + %d)\n",
				r.Name, r.AllocsOp, p.AllocsOp, path, pct, slack)
			ok = false
		}
	}
	if ok {
		fmt.Fprintf(w, "benchjson: allocs/op gate vs %s passed (threshold %.0f%%)\n", path, pct)
	}
	return ok
}

// loadBaseline reads a prior snapshot — either a Doc or a bare result list.
func loadBaseline(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err == nil && len(doc.Benchmarks) > 0 {
		return doc.Benchmarks, nil
	}
	var list []Result
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("benchjson: %s is neither a snapshot document nor a result list: %v", path, err)
	}
	return list, nil
}

// speedups computes baseline ns/op ÷ current ns/op for benchmarks present in
// both snapshots.
func speedups(base, cur []Result) map[string]float64 {
	baseNs := make(map[string]float64, len(base))
	for _, r := range base {
		if r.NsPerOp > 0 {
			baseNs[r.Name] = r.NsPerOp
		}
	}
	out := map[string]float64{}
	for _, r := range cur {
		if b, ok := baseNs[r.Name]; ok && r.NsPerOp > 0 {
			out[r.Name] = b / r.NsPerOp
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Parse reads a `go test -bench` stream and returns the benchmark results in
// name order. A benchmark appearing twice (e.g. from multiple packages or
// -count>1) keeps the last occurrence.
func Parse(r io.Reader) ([]Result, error) {
	byName := map[string]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		res, ok := parseLine(sc.Text())
		if ok {
			byName[res.Name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	results := make([]Result, len(names))
	for i, name := range names {
		results[i] = byName[name]
	}
	return results, nil
}

// parseRuns reads a `go test -bench` stream holding each benchmark any
// number of times and returns every benchmark's ns/op samples in stream
// order, with the names in first-seen order.
func parseRuns(r io.Reader) ([]string, map[string][]float64, error) {
	var names []string
	runs := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		res, ok := parseLine(sc.Text())
		if !ok || res.NsPerOp <= 0 {
			continue
		}
		if _, seen := runs[res.Name]; !seen {
			names = append(names, res.Name)
		}
		runs[res.Name] = append(runs[res.Name], res.NsPerOp)
	}
	return names, runs, sc.Err()
}

// abRow compares one benchmark's ns/op between two alternately run sides.
type abRow struct {
	Name string
	// Base and New are the first quartile, median and third quartile.
	Base, New [3]float64
	// Wins counts the runs, paired by index, where the new side was faster,
	// out of Pairs.
	Wins, Pairs int
}

// compareAB builds one row per benchmark in names that both sides ran.
func compareAB(names []string, base, cur map[string][]float64) []abRow {
	var rows []abRow
	for _, name := range names {
		b, c := base[name], cur[name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		row := abRow{Name: name, Base: quartiles(b), New: quartiles(c), Pairs: min(len(b), len(c))}
		for i := 0; i < row.Pairs; i++ {
			if c[i] < b[i] {
				row.Wins++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// quartiles returns the 25th, 50th and 75th percentiles of xs, linearly
// interpolated between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i, p := range [3]float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

// writeAB prints the comparison table: medians with quartiles, the change
// of the medians (negative is faster) and the paired wins.
func writeAB(w io.Writer, rows []abRow) {
	fmt.Fprintf(w, "%-30s %12s %10s %10s %12s %10s %10s %8s %6s\n",
		"benchmark", "base ns/op", "q1", "q3", "new ns/op", "q1", "q3", "change", "wins")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %12.0f %10.0f %10.0f %12.0f %10.0f %10.0f %+7.1f%% %3d/%d\n",
			r.Name, r.Base[1], r.Base[0], r.Base[2], r.New[1], r.New[0], r.New[2],
			100*(r.New[1]/r.Base[1]-1), r.Wins, r.Pairs)
	}
}

// parseLine decodes one "BenchmarkX-8   123   456 ns/op   789 B/op ..." line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{
		Name:       gomaxprocsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), ""),
		Iterations: iters,
	}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	if res.NsPerOp == 0 && res.Metrics == nil && res.BytesPerOp == 0 {
		return Result{}, false
	}
	return res, true
}
