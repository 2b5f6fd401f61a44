package telemetry

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/telemetry/hist"
)

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency")
	for _, d := range []time.Duration{
		500 * time.Microsecond, // below the first bound: counts toward every le
		3 * time.Millisecond,
		3 * time.Millisecond,
		2 * time.Second,
		50 * time.Second, // above the last bound: +Inf only
	} {
		h.Observe(d)
	}

	snaps := r.HistSnapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 52.0065 {
		t.Fatalf("Sum = %v, want 52.0065", s.Sum)
	}
	if len(s.Buckets) != promHi-promLo+1 {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), promHi-promLo+1)
	}
	for j, b := range s.Buckets {
		i := promLo + j
		if want := time.Duration(hist.Upper(i)).Seconds(); b.Upper != want {
			t.Fatalf("bucket %d: le = %v, want the hist edge %v", i, b.Upper, want)
		}
		var want int64 = 1 // the 500 µs sample
		if b.Upper >= 0.003 {
			want += 2
		}
		if b.Upper >= 2 {
			want++
		}
		if b.Count != want {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b.Upper, b.Count, want)
		}
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "")
	edge := time.Duration(hist.Upper(promLo))
	h.Observe(edge) // le is inclusive per the exposition format
	h.Observe(edge + 1)
	b := r.HistSnapshot()[0].Buckets
	if b[0].Count != 1 || b[1].Count != 2 {
		t.Fatalf("observations at and past the first bound read %d and %d, want 1 and 2", b[0].Count, b[1].Count)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var r *Registry
	h := r.Histogram("x", "")
	if h != nil {
		t.Fatal("nil registry returned non-nil histogram")
	}
	h.Observe(1) // must not panic
}

func TestHistogramIdempotentAndTypeConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("h", "")
	b := r.Histogram("h", "other help")
	if a != b {
		t.Fatal("re-registration returned a different histogram")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("registering a counter over a histogram did not panic")
			}
		}()
		r.Counter("h", "")
	}()
	r.Counter("c", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("registering a histogram over a counter did not panic")
			}
		}()
		r.Histogram("c", "")
	}()
}

// TestHistogramExpositionConformance checks the rendered text against the
// Prometheus text format 0.0.4 invariants: TYPE histogram, ascending
// cumulative buckets closed by le="+Inf" whose count equals _count, a _sum
// line, and name-sorted interleaving with scalar metrics.
func TestHistogramExpositionConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("aa_total", "before").Add(1)
	r.Counter("zz_total", "after").Add(2)
	h := r.Histogram("req_seconds", "request latency")
	h.Observe(100 * time.Millisecond)
	h.Observe(300 * time.Millisecond)
	h.Observe(2 * time.Second)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Block order is name-sorted across kinds.
	for _, pair := range [][2]string{{"aa_total", "req_seconds"}, {"req_seconds", "zz_total"}} {
		if strings.Index(out, pair[0]) > strings.Index(out, pair[1]) {
			t.Fatalf("blocks out of order (%s after %s):\n%s", pair[0], pair[1], out)
		}
	}
	if !strings.Contains(out, "# TYPE req_seconds histogram\n") {
		t.Fatalf("missing histogram TYPE line:\n%s", out)
	}

	// Parse the bucket lines and check cumulativity and the +Inf closure.
	bucketRe := regexp.MustCompile(`(?m)^req_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	matches := bucketRe.FindAllStringSubmatch(out, -1)
	if want := promHi - promLo + 2; len(matches) != want {
		t.Fatalf("got %d bucket lines, want %d:\n%s", len(matches), want, out)
	}
	var prev int64 = -1
	for _, m := range matches {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Fatalf("buckets not cumulative: %v", matches)
		}
		prev = n
	}
	if matches[len(matches)-1][1] != "+Inf" {
		t.Fatalf("last bucket le = %q, want +Inf", matches[len(matches)-1][1])
	}
	if !strings.Contains(out, `req_seconds_bucket{le="+Inf"} 3`) {
		t.Fatalf("+Inf bucket count wrong:\n%s", out)
	}
	if !strings.Contains(out, "req_seconds_count 3\n") {
		t.Fatalf("missing _count:\n%s", out)
	}
	if !strings.Contains(out, "req_seconds_sum 2.4\n") {
		t.Fatalf("missing or wrong _sum:\n%s", out)
	}
	// le label values are the hist edges in seconds, rendered without
	// exponents: 2^20−1 ns and 2^34−1 ns.
	if !strings.Contains(out, `req_seconds_bucket{le="0.001048575"} 0`) ||
		!strings.Contains(out, `req_seconds_bucket{le="17.179869183"} 3`) {
		t.Fatalf("le formatting drifted:\n%s", out)
	}
}
