package rmem

import (
	"strings"
	"testing"
	"time"

	"github.com/faasmem/faasmem/internal/faultinject"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/telemetry"
	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// FuzzPoolLedger drives a random sequence of the pool's byte-moving entry
// points and checks, after every call, that the three views of pool
// occupancy agree: Used() never goes negative and equals the net signed
// total of the flow ledger, the faasmem_pool_used_bytes gauge reads the
// same value, the ledger's conservation audit holds, and the memory node
// (when attached) keeps its invariants and its compressed, spilled and
// merged page counters equal the ledger's tier flows.
//
// data[0] picks the setup: bit 0 attaches a tiny-DRAM memory node with
// cross-tenant merging (tenant a and b opted in, c not) and a small shared
// cache, bit 1 injects a fault plan seeded by data[1], bit 2 caps a
// node-less pool's capacity. Each following 5-byte group is one call:
// entry point, owner, class, page count, and the virtual time to advance
// before it.
func FuzzPoolLedger(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x10\x00\x02\x00\x02\x08\x01\x04\x00\x04\x06\x03\x01\x00\x20\x05"))
	f.Add([]byte("\x01\x00\x00\x00\x01\x30\x00\x00\x01\x01\x30\x00\x07\x02\x01\x08\x01\x02\x00\x01\x10\x02\x06\x01\x00\x04\x03\x00\x01\x40\x01\x05"))
	f.Add([]byte("\x03\x07\x00\x00\x01\x20\x10\x02\x01\x01\x10\x40\x04\x02\x04\x20\x40\x05\x03\x01\x08\x40\x06\x01\x04\x04\x40\x07\x01\x01\x04\x40"))
	f.Add([]byte("\x04\x00\x00\x00\x00\x30\x00\x00\x01\x00\x30\x00\x03\x00\x00\x08\x00\x01\x00\x01\x40\x00"))
	// One owner offloads twice onto the tiny node, then dirties pages held
	// against a merge master whose private copy does not fit: the recalled
	// remainder must refresh the gauge.
	f.Add([]byte("10000000000070000"))
	f.Add([]byte("\x01\x00\x06\x04\x04\x20\x00\x00\x05\x04\x20\x00\x06\x04\x04\x10\x00\x07\x05\x04\x10\x00\x04\x04\x00\x00\x00"))

	owners := []string{"a1#1", "a1#2", "a2#1", "b1#1", "c1#1"}
	fnOf := func(owner string) string { return owner[:strings.IndexByte(owner, '#')] }
	classes := []memnode.Class{memnode.ClassRuntime, memnode.ClassInit, memnode.ClassExec, memnode.ClassShared}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{Bandwidth: 64 << 20}
		if data[0]&1 != 0 {
			cfg.Node = &memnode.Config{
				DRAMBytes:  32 * pageBytes,
				SpillBytes: 32 * pageBytes,
				MergeScope: memnode.MergeCrossTenant,
				MergeOptIn: []string{"a", "b"},
				TenantOf:   func(fn string) string { return fn[:1] },
				CacheBytes: 8 * pageBytes,
			}
		}
		if data[0]&2 != 0 {
			cfg.Faults = faultinject.New(faultinject.Config{
				Horizon: 10 * time.Minute, Intensity: 0.8, Seed: int64(data[1]),
			})
		}
		if data[0]&4 != 0 {
			cfg.Capacity = 128 * pageBytes
		}
		p := NewPool(cfg)
		tl := timeseries.NewRecorder(timeseries.Config{Window: 10 * time.Second})
		reg := telemetry.NewRegistry()
		p.Instrument(telemetry.Hub{Timeline: tl, Reg: reg})

		var now simtime.Time
		for i, ops := 0, data[2:]; len(ops) >= 5; i, ops = i+1, ops[5:] {
			owner := owners[int(ops[1])%len(owners)]
			fn := fnOf(owner)
			class := classes[int(ops[2])%len(classes)]
			pages := int(ops[3]) % 80
			now += simtime.Time(ops[4]) * simtime.Time(50*time.Millisecond)
			// Two classes per batch, so the ledger's per-class split runs.
			var counts ClassCounts
			counts[class] = pages
			counts[(class+1)%memnode.NumClasses] += pages / 3
			var op string
			switch ops[0] % 8 {
			case 0:
				op = "offload"
				p.OffloadDescribed(now, owner, fn, counts)
			case 1:
				op = "fault"
				p.faultBatchOwner(now, owner, fn, counts)
			case 2:
				op = "recall"
				p.RecallDescribed(now, owner, fn, counts)
			case 3:
				op = "discard"
				p.DiscardOwner(now, owner, fn, int64(pages)*pageBytes)
			case 4:
				op = "recall-local"
				p.RecallLocal(now, owner, fn, counts)
			case 5:
				op = "fetch-retry"
				p.FetchRetry(now, owner, fn, counts)
			case 6:
				op = "share-read"
				p.ShareRead(now, owner, fn, pages)
			case 7:
				op = "write-break"
				p.WriteBreakOwner(now, owner, fn, class, pages)
			}

			var net int64
			for k, b := range tl.FlowTotals() {
				net += int64(timeseries.FlowKind(k).Direction()) * b
			}
			used := p.Used()
			switch {
			case used < 0:
				t.Fatalf("op %d (%s %s %v×%d): Used() = %d < 0", i, op, owner, class, pages, used)
			case used != net:
				t.Fatalf("op %d (%s %s %v×%d): Used() = %d, net flow total = %d", i, op, owner, class, pages, used, net)
			}
			if g := reg.Gauge("faasmem_pool_used_bytes", "").Value(); g != used {
				t.Fatalf("op %d (%s): faasmem_pool_used_bytes = %d, Used() = %d", i, op, g, used)
			}
			if a := timeseries.AuditFlows(tl); !a.OK {
				t.Fatalf("op %d (%s): flow audit failed: %+v", i, op, a)
			}
			if n := p.Node(); n != nil {
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("op %d (%s): %v", i, op, err)
				}
				tot := tl.FlowTotals()
				for _, tier := range []struct {
					family string
					kind   timeseries.FlowKind
				}{
					{"faasmem_memnode_compressed_pages_total", timeseries.FlowCompress},
					{"faasmem_memnode_spilled_pages_total", timeseries.FlowSpill},
					{"faasmem_memnode_merged_pages_total", timeseries.FlowMerge},
				} {
					if got := reg.Counter(tier.family, "").Value() * pageBytes; got != tot[tier.kind] {
						t.Fatalf("op %d (%s): %s = %d B, %s flow = %d B", i, op, tier.family, got, tier.kind, tot[tier.kind])
					}
				}
			}
		}
	})
}
