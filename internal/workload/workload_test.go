package workload

import (
	"math/rand"
	"testing"
	"time"
)

func TestAllProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 11 {
		t.Fatalf("Profiles() returned %d, want 11", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestProfilesAreFreshCopies(t *testing.T) {
	a := ByName("bert")
	a.InitBytes = 1
	b := ByName("bert")
	if b.InitBytes == 1 {
		t.Fatal("ByName returned a shared profile; mutations leak")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown benchmark should be nil")
	}
	if len(Names()) != 11 {
		t.Errorf("Names() has %d entries", len(Names()))
	}
}

func TestMicroClassification(t *testing.T) {
	// The eight micro-benchmarks are the profiles with at most a tenth of a CPU.
	micro := func(p *Profile) bool { return p.CPUShare <= 0.1 }
	micros := 0
	for _, p := range Profiles() {
		if micro(p) {
			micros++
			if p.InitBytes >= p.RuntimeBytes {
				t.Errorf("%s: micro-benchmark init (%d) should be smaller than runtime (%d)",
					p.Name, p.InitBytes, p.RuntimeBytes)
			}
		}
	}
	if micros != 8 {
		t.Fatalf("micro count = %d, want 8", micros)
	}
	for _, app := range []string{"bert", "graph", "web"} {
		p := ByName(app)
		if micro(p) {
			t.Errorf("%s misclassified as micro", app)
		}
		if p.InitBytes <= p.RuntimeBytes {
			t.Errorf("%s: application init segment should dominate runtime (§8.2.1)", app)
		}
	}
}

func TestRuntimeFootprintShape(t *testing.T) {
	// Paper Fig. 4: OpenWhisk Python 24 MB, Java 57 MB; Azure all > 100 MB;
	// Java always the largest per platform.
	if got := RuntimeFootprint(OpenWhisk, Python); got != 24*MB {
		t.Errorf("OpenWhisk Python = %d, want 24 MB", got)
	}
	if got := RuntimeFootprint(OpenWhisk, Java); got != 57*MB {
		t.Errorf("OpenWhisk Java = %d, want 57 MB", got)
	}
	for _, l := range []Language{NodeJS, Python, Java} {
		if RuntimeFootprint(Azure, l) <= 100*MB {
			t.Errorf("Azure %v = %d, want > 100 MB", l, RuntimeFootprint(Azure, l))
		}
		if RuntimeFootprint(Azure, l) <= RuntimeFootprint(OpenWhisk, l) {
			t.Errorf("Azure %v should exceed OpenWhisk", l)
		}
	}
	for _, p := range []Platform{OpenWhisk, Azure} {
		if RuntimeFootprint(p, Java) <= RuntimeFootprint(p, Python) {
			t.Errorf("%v: Java should have the largest runtime (JVM)", p)
		}
	}
}

func TestQuotasMatchPaper(t *testing.T) {
	want := map[string]int64{"bert": 1280 * MB, "graph": 256 * MB, "web": 384 * MB}
	for name, q := range want {
		if got := ByName(name).QuotaBytes; got != q {
			t.Errorf("%s quota = %d, want %d", name, got, q)
		}
	}
}

func TestQuotaCoversFootprint(t *testing.T) {
	for _, p := range Profiles() {
		if p.TotalBytes() > p.QuotaBytes {
			t.Errorf("%s: footprint %d exceeds quota %d", p.Name, p.TotalBytes(), p.QuotaBytes)
		}
	}
}

func TestFixedHotTouches(t *testing.T) {
	p := Bert()
	rng := rand.New(rand.NewSource(1))
	var tc Touches
	p.RequestTouches(rng, &tc)
	if len(tc.Runtime) != 1 || tc.Runtime[0].Len() != p.RuntimeHotBytes {
		t.Fatalf("runtime touches = %+v", tc.Runtime)
	}
	if len(tc.Init) < 1 || tc.Init[0] != (Span{0, p.InitHotBytes}) {
		t.Fatalf("init base touch = %+v, want [0, %d)", tc.Init, p.InitHotBytes)
	}
	// Jitter span stays within the init segment and outside the hot base.
	if len(tc.Init) == 2 {
		j := tc.Init[1]
		if j.Start < p.InitHotBytes || j.End > p.InitBytes {
			t.Fatalf("jitter span %+v escapes [hot, init)", j)
		}
		if j.Len() != p.JitterBytes {
			t.Fatalf("jitter length = %d, want %d", j.Len(), p.JitterBytes)
		}
	} else {
		t.Fatal("bert should produce a jitter span")
	}
}

func TestFullScanTouchesEverything(t *testing.T) {
	p := Graph()
	rng := rand.New(rand.NewSource(1))
	var tc Touches
	p.RequestTouches(rng, &tc)
	if len(tc.Init) != 1 || tc.Init[0] != (Span{0, p.InitBytes}) {
		t.Fatalf("graph init touches = %+v, want full segment", tc.Init)
	}
}

func TestParetoTouches(t *testing.T) {
	p := Web()
	rng := rand.New(rand.NewSource(1))
	counts := make(map[int64]int)
	var tc Touches
	for i := 0; i < 5000; i++ {
		p.RequestTouches(rng, &tc)
		// Shared base plus up to ObjectsPerRequest distinct object spans.
		if len(tc.Init) < 2 || len(tc.Init) > 1+p.ObjectsPerRequest {
			t.Fatalf("web touches = %+v, want shared + 1..%d objects", tc.Init, p.ObjectsPerRequest)
		}
		if tc.Init[0] != (Span{0, p.InitHotBytes}) {
			t.Fatalf("shared span = %+v", tc.Init[0])
		}
		for _, obj := range tc.Init[1:] {
			if obj.Start < p.InitHotBytes || obj.End > p.InitBytes {
				t.Fatalf("object span %+v out of range", obj)
			}
			counts[obj.Start]++
		}
	}
	// Pareto skew: the most popular object should dominate.
	maxCount, total := 0, 0
	for _, c := range counts {
		total += c
		if c > maxCount {
			maxCount = c
		}
	}
	if frac := float64(maxCount) / float64(total); frac < 0.1 {
		t.Errorf("top object share = %.2f, want Pareto-dominant (> 0.1)", frac)
	}
	// But the tail must exist: multiple distinct objects are touched.
	if len(counts) < 10 {
		t.Errorf("only %d distinct objects touched; Pareto tail missing", len(counts))
	}
}

func TestParetoIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		idx := paretoIndex(rng, 1.16, 50)
		if idx < 0 || idx >= 50 {
			t.Fatalf("pareto index %d out of [0, 50)", idx)
		}
	}
	if paretoIndex(rng, 1.16, 1) != 0 {
		t.Error("single-object pareto index must be 0")
	}
	if paretoIndex(rng, 1.16, 0) != 0 {
		t.Error("zero-object pareto index must be 0")
	}
}

func TestHelloWorldProfiles(t *testing.T) {
	for _, pl := range []Platform{OpenWhisk, Azure} {
		for _, l := range []Language{NodeJS, Python, Java} {
			h := HelloWorld(pl, l)
			if err := h.Validate(); err != nil {
				t.Errorf("hello %v/%v invalid: %v", pl, l, err)
			}
			if h.RuntimeBytes != RuntimeFootprint(pl, l) {
				t.Errorf("hello %v/%v runtime mismatch", pl, l)
			}
		}
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	bad := []*Profile{
		{},
		{Name: "x", RuntimeBytes: 0, ExecTime: time.Second},
		{Name: "x", RuntimeBytes: 10, ExecTime: 0},
		{Name: "x", RuntimeBytes: 10, RuntimeHotBytes: 20, ExecTime: time.Second},
		{Name: "x", RuntimeBytes: 10, InitBytes: 5, InitHotBytes: 6, ExecTime: time.Second},
		{Name: "x", RuntimeBytes: 10, Pattern: ParetoObjects, ExecTime: time.Second},
		{Name: "x", RuntimeBytes: 10, InitBytes: -1, ExecTime: time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d validated", i)
		}
	}
}

func TestSpanLen(t *testing.T) {
	if (Span{10, 25}).Len() != 15 {
		t.Error("Span.Len wrong")
	}
}

func TestStringers(t *testing.T) {
	if OpenWhisk.String() != "OpenWhisk" || Azure.String() != "Azure" {
		t.Error("platform strings")
	}
	if NodeJS.String() != "Node.js" || Python.String() != "Python" || Java.String() != "Java" {
		t.Error("language strings")
	}
	if FixedHot.String() != "fixed-hot" || FullScan.String() != "full-scan" || ParetoObjects.String() != "pareto-objects" {
		t.Error("pattern strings")
	}
}
