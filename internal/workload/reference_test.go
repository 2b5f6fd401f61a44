package workload

import (
	"math/rand"
	"slices"
	"testing"
)

// refRequestTouches is the retired value-returning RequestTouches, which
// built fresh span slices and a fresh seen map on every request. It is the
// oracle for the buffer-reusing version.
func refRequestTouches(p *Profile, rng *rand.Rand) Touches {
	var t Touches
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
				seen := make(map[int]bool, k)
				for i := 0; i < k; i++ {
					idx := paretoIndex(rng, p.alpha(), p.Objects)
					if seen[idx] {
						continue
					}
					seen[idx] = true
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
	return t
}

// TestRequestTouchesMatchesReference replays 10,000 requests of every
// built-in profile, plus a user profile drawing more objects than it has,
// through RequestTouches on one reused Touches and through the reference on
// a second rng of the same seed: the spans and the rng's next draw must
// agree after every request, and a warmed Touches must refill without
// allocating.
func TestRequestTouchesMatchesReference(t *testing.T) {
	crowded := Web()
	crowded.Name = "web-crowded"
	crowded.Objects = 6
	crowded.ObjectsPerRequest = 40
	for i, p := range append(Profiles(), crowded) {
		seed := int64(100 + i)
		rng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		var tc Touches
		for req := 0; req < 10_000; req++ {
			p.RequestTouches(rng, &tc)
			want := refRequestTouches(p, refRng)
			if !slices.Equal(tc.Runtime, want.Runtime) || !slices.Equal(tc.Init, want.Init) {
				t.Fatalf("%s request %d: touches %+v %+v, want %+v %+v",
					p.Name, req, tc.Runtime, tc.Init, want.Runtime, want.Init)
			}
			if got, want := rng.Int63(), refRng.Int63(); got != want {
				t.Fatalf("%s request %d: next draw %d, want %d", p.Name, req, got, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { p.RequestTouches(rng, &tc) }); n != 0 {
			t.Errorf("%s: RequestTouches made %v allocations per call, want 0", p.Name, n)
		}
	}
}
