// Package workload defines the memory and timing profiles of the paper's 11
// benchmarks: eight FunctionBench micro-benchmarks (float, matmul, linpack,
// image, chameleon, pyaes, gzip, json) and three real-world applications
// (BERT ML inference, Graph BFS, HTML Web service).
//
// A Profile captures what the offloading policies can observe of a real
// function: how much memory each lifecycle segment allocates, which pages a
// request touches (the per-segment hot sets), how inputs skew accesses
// (Pareto idx for Web), and base execution/initialization times. The numbers
// are calibrated against the paper's §3 measurements (Fig. 4 runtime
// footprints, Fig. 6 BERT scan, Fig. 9 Web scan) and §8.1 setup (CPU shares,
// ~200 ms application latencies, Table 1 memory levels).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// MB is one megabyte (10^6 bytes), the unit the paper reports memory in.
const MB = 1_000_000

// Platform is a serverless provider whose base images the runtime-footprint
// study (Fig. 4) compares.
type Platform int

const (
	// OpenWhisk is the Apache OpenWhisk official-build image family.
	OpenWhisk Platform = iota
	// Azure is the Azure Functions official-build image family.
	Azure
)

// String implements fmt.Stringer.
func (p Platform) String() string {
	if p == Azure {
		return "Azure"
	}
	return "OpenWhisk"
}

// Language is the runtime language of a container image.
type Language int

const (
	// NodeJS is the Node.js runtime.
	NodeJS Language = iota
	// Python is the CPython runtime.
	Python
	// Java is the JVM runtime.
	Java
)

// String implements fmt.Stringer.
func (l Language) String() string {
	switch l {
	case NodeJS:
		return "Node.js"
	case Python:
		return "Python"
	case Java:
		return "Java"
	default:
		return fmt.Sprintf("lang(%d)", int(l))
	}
}

// RuntimeFootprint returns the inactive runtime-segment memory of a
// hello-world container for the platform/language pair, calibrated to the
// paper's Figure 4 (OpenWhisk Python 24 MB, Java 57 MB; Azure all > 100 MB,
// Java largest due to the JVM).
func RuntimeFootprint(p Platform, l Language) int64 {
	switch p {
	case OpenWhisk:
		switch l {
		case NodeJS:
			return 18 * MB
		case Python:
			return 24 * MB
		case Java:
			return 57 * MB
		}
	case Azure:
		switch l {
		case NodeJS:
			return 104 * MB
		case Python:
			return 118 * MB
		case Java:
			return 152 * MB
		}
	}
	return 0
}

// PatternKind selects how a request touches the init segment.
type PatternKind int

const (
	// FixedHot requests touch a stable prefix of the init segment (plus a
	// small random jitter) — the BERT shape of Fig. 6 where ~400 MB of
	// init-stage pages are re-accessed by every request.
	FixedHot PatternKind = iota
	// FullScan requests touch the entire init segment — the Graph shape,
	// where each BFS traverses the whole graph (§8.2.1).
	FullScan
	// ParetoObjects models the Web shape of Fig. 9: the init segment is an
	// array of cached objects (HTML pages) and each request touches the
	// object selected by a Pareto-distributed idx plus a shared hot base.
	ParetoObjects
)

// String implements fmt.Stringer.
func (k PatternKind) String() string {
	switch k {
	case FixedHot:
		return "fixed-hot"
	case FullScan:
		return "full-scan"
	case ParetoObjects:
		return "pareto-objects"
	default:
		return fmt.Sprintf("pattern(%d)", int(k))
	}
}

// Span is a half-open byte interval [Start, End) inside a segment.
type Span struct {
	Start, End int64
}

// Len returns the span's byte length.
func (s Span) Len() int64 { return s.End - s.Start }

// Profile describes one benchmark.
type Profile struct {
	// Name is the benchmark's name as used throughout the paper.
	Name string
	// Language selects the container runtime.
	Language Language
	// CPUShare is the assigned CPU fraction (§8.1: 0.1 for micros, 1 / 0.5 /
	// 0.2 for Bert / Graph / Web).
	CPUShare float64

	// RuntimeBytes is the runtime-segment footprint (Fig. 4 shapes).
	RuntimeBytes int64
	// RuntimeHotBytes is the slice of the runtime touched on every request:
	// the action proxy, request dispatch, and language-core paths.
	RuntimeHotBytes int64

	// InitBytes is the resident init-segment footprint after initialization.
	InitBytes int64
	// InitHotBytes is the per-request hot set inside the init segment (for
	// FixedHot), or the shared base (for ParetoObjects). Ignored by FullScan.
	InitHotBytes int64
	// JitterBytes adds a random extra init touch per request (FixedHot), the
	// "different requests access different nodes of the neural network"
	// effect for BERT.
	JitterBytes int64
	// JitterRegionBytes bounds where the jitter lands: within
	// [InitHotBytes, InitHotBytes+JitterRegionBytes). Zero means the whole
	// remaining init segment. A narrow region means the varying pages are
	// drawn from a stable working set rather than the entire cold tail.
	JitterRegionBytes int64

	// Pattern selects the init access shape.
	Pattern PatternKind
	// Objects is the cached-object count for ParetoObjects.
	Objects int
	// ObjectsPerRequest is how many cached objects one request touches
	// (an HTML page plus its assets). Default 1.
	ObjectsPerRequest int
	// ParetoAlpha is the Pareto shape for object selection; §8.1 uses Pareto
	// distributed idx. 1.16 approximates an 80/20 skew.
	ParetoAlpha float64

	// ExecBytes is the short-lived exec-segment allocation per request.
	ExecBytes int64
	// ExecTime is the base execution time with all pages local.
	ExecTime time.Duration
	// InitTime is the function initialization time on cold start.
	InitTime time.Duration
	// LaunchTime is the container/runtime launch time on cold start.
	LaunchTime time.Duration

	// QuotaBytes is the production memory quota used by the density study
	// (Fig. 16: 1280 / 256 / 384 MB for Bert / Graph / Web).
	QuotaBytes int64

	// RuntimeWriteRatio is the fraction of the offloaded runtime segment a
	// request dirties (0..1). Writes against pool-side merge masters break
	// copy-on-write, so a non-zero ratio turns the function write-hot for
	// the merge-domain studies. Default 0: runtime pages are read-only, as
	// the density studies assume.
	RuntimeWriteRatio float64
}

// TotalBytes returns the peak footprint of a container: runtime + init +
// exec segments.
func (p *Profile) TotalBytes() int64 { return p.RuntimeBytes + p.InitBytes + p.ExecBytes }

// Touches lists the byte spans a request touches in the runtime and init
// segments. Spans are relative to each segment's start. RequestTouches
// refills a Touches in place, so a caller that keeps one value allocates
// only while its buffers first grow.
type Touches struct {
	Runtime []Span
	Init    []Span
	// seen is RequestTouches' scratch set of the objects a request has
	// already drawn, cleared on each call.
	seen map[int]struct{}
}

// paretoIndex draws an object index in [0, n) with Pareto-distributed
// popularity: low indices are exponentially more popular.
func paretoIndex(rng *rand.Rand, alpha float64, n int) int {
	if n <= 1 {
		return 0
	}
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	// Pareto with x_m = 1: x = u^(-1/alpha) ∈ [1, ∞).
	x := math.Pow(u, -1/alpha)
	idx := int(x) - 1
	if idx >= n {
		idx = idx % n
	}
	return idx
}

// RequestTouches fills t with the spans a single request accesses, using rng
// for the pattern's stochastic parts, and reuses t's buffers: the spans are
// valid until the next call with the same t. It is deterministic given the
// rng state.
func (p *Profile) RequestTouches(rng *rand.Rand, t *Touches) {
	t.Runtime, t.Init = t.Runtime[:0], t.Init[:0]
	if p.RuntimeHotBytes > 0 {
		hot := min(p.RuntimeHotBytes, p.RuntimeBytes)
		t.Runtime = append(t.Runtime, Span{0, hot})
	}
	switch p.Pattern {
	case FullScan:
		if p.InitBytes > 0 {
			t.Init = append(t.Init, Span{0, p.InitBytes})
		}
	case ParetoObjects:
		shared := min(p.InitHotBytes, p.InitBytes)
		if shared > 0 {
			t.Init = append(t.Init, Span{0, shared})
		}
		if p.Objects > 0 && p.InitBytes > shared {
			objBytes := (p.InitBytes - shared) / int64(p.Objects)
			if objBytes > 0 {
				k := p.ObjectsPerRequest
				if k <= 0 {
					k = 1
				}
				if t.seen == nil {
					t.seen = make(map[int]struct{}, k)
				}
				clear(t.seen)
				for i := 0; i < k; i++ {
					idx := paretoIndex(rng, p.alpha(), p.Objects)
					if _, dup := t.seen[idx]; dup {
						continue
					}
					t.seen[idx] = struct{}{}
					start := shared + int64(idx)*objBytes
					t.Init = append(t.Init, Span{start, min(start+objBytes, p.InitBytes)})
				}
			}
		}
	default: // FixedHot
		hot := min(p.InitHotBytes, p.InitBytes)
		if hot > 0 {
			t.Init = append(t.Init, Span{0, hot})
		}
		if p.JitterBytes > 0 && p.InitBytes > hot {
			regionEnd := p.InitBytes
			if p.JitterRegionBytes > 0 && hot+p.JitterRegionBytes < regionEnd {
				regionEnd = hot + p.JitterRegionBytes
			}
			span := min(p.JitterBytes, regionEnd-hot)
			maxStart := regionEnd - span
			start := hot
			if maxStart > hot {
				start = hot + rng.Int63n(maxStart-hot+1)
			}
			t.Init = append(t.Init, Span{start, start + span})
		}
	}
}

func (p *Profile) alpha() float64 {
	if p.ParetoAlpha > 0 {
		return p.ParetoAlpha
	}
	return 1.16
}

// Validate performs sanity checks on a profile.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile without name")
	case p.RuntimeBytes <= 0:
		return fmt.Errorf("workload: %s: runtime segment must be positive", p.Name)
	case p.InitBytes < 0 || p.ExecBytes < 0:
		return fmt.Errorf("workload: %s: negative segment size", p.Name)
	case p.ExecTime <= 0:
		return fmt.Errorf("workload: %s: execution time must be positive", p.Name)
	case p.RuntimeHotBytes > p.RuntimeBytes:
		return fmt.Errorf("workload: %s: runtime hot set exceeds runtime segment", p.Name)
	case p.InitHotBytes > p.InitBytes:
		return fmt.Errorf("workload: %s: init hot set exceeds init segment", p.Name)
	case p.Pattern == ParetoObjects && p.Objects <= 0:
		return fmt.Errorf("workload: %s: pareto pattern needs Objects", p.Name)
	case p.RuntimeWriteRatio < 0 || p.RuntimeWriteRatio > 1:
		return fmt.Errorf("workload: %s: runtime write ratio must be in [0,1]", p.Name)
	}
	return nil
}
