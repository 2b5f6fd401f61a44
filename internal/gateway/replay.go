package gateway

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/faasmem/faasmem/internal/core"
	"github.com/faasmem/faasmem/internal/experiments"
	"github.com/faasmem/faasmem/internal/faas"
	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/rmem"
	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/trace"
	"github.com/faasmem/faasmem/internal/workload"
)

// ReplayMemNode configures an optional pool-side memory node for the replay.
// When present, the pool's admission consults the node's dedup/compression/
// spill tiers and the response carries the node's storage statistics.
type ReplayMemNode struct {
	// DRAMMB is the node's DRAM capacity. Default 16384 (16 GiB).
	DRAMMB int `json:"dram_mb"`
	// SpillMB bounds the spill tier; 0 means unbounded.
	SpillMB int `json:"spill_mb"`
	// QuotaMB caps each tenant's logical bytes; 0 means no quota.
	QuotaMB int `json:"quota_mb"`
	// CompressRatio is the zswap-style compression ratio. Default 3.0.
	CompressRatio float64 `json:"compress_ratio"`
	// DisableDedup stores every offloaded page privately.
	DisableDedup bool `json:"disable_dedup"`
	// DisableCompression keeps cold entries raw (spill only).
	DisableCompression bool `json:"disable_compression"`
}

func (m *ReplayMemNode) config() *memnode.Config {
	cfg := &memnode.Config{
		DisableDedup:       m.DisableDedup,
		DisableCompression: m.DisableCompression,
		CompressRatio:      m.CompressRatio,
	}
	if m.DRAMMB > 0 {
		cfg.DRAMBytes = int64(m.DRAMMB) << 20
	}
	if m.SpillMB > 0 {
		cfg.SpillBytes = int64(m.SpillMB) << 20
	}
	if m.QuotaMB > 0 {
		cfg.TenantQuotaBytes = int64(m.QuotaMB) << 20
	}
	return cfg
}

// ReplayRequest is the POST /replay body: a multi-function trace replayed on
// one node. The trace uses the same JSON schema as cmd/tracegen's output
// (and trace.ReadAzureCSV conversions).
type ReplayRequest struct {
	// Trace is the invocation trace to replay; its duration is at most
	// 24 h (experiments.MaxHorizon), so slice a longer one.
	Trace *trace.Trace `json:"trace"`
	// Profile maps every trace function onto one benchmark ("mix"
	// round-robins the 11). Default "mix".
	Profile string `json:"profile"`
	// Policy is the offloading policy. Default "faasmem".
	Policy string `json:"policy"`
	// KeepAliveSec defaults to 600, max 24 h.
	KeepAliveSec float64 `json:"keep_alive_sec"`
	// Seed drives workload randomness. Default 1.
	Seed int64 `json:"seed"`
	// MaxInvocations caps the replay size to keep the service responsive.
	// Default (and ceiling) 200000.
	MaxInvocations int `json:"max_invocations"`
	// MemNode, when set, backs the replay's pool with a simulated memory
	// node (dedup + compression + spill tiers).
	MemNode *ReplayMemNode `json:"mem_node"`
}

// validate applies defaults and rejects malformed requests. It runs before
// any simulation state is built so every rejection is a clean 400 with a
// message listing the accepted options.
func (req *ReplayRequest) validate() error {
	if req.Policy == "" {
		req.Policy = "faasmem"
	}
	if !experiments.ValidPolicy(experiments.PolicyKind(req.Policy)) {
		kinds := experiments.PolicyKinds()
		opts := make([]string, len(kinds))
		for i, k := range kinds {
			opts[i] = string(k)
		}
		return fmt.Errorf("unknown policy %q (options: %s)", req.Policy, strings.Join(opts, ", "))
	}
	if req.Profile == "" {
		req.Profile = "mix"
	}
	if req.Profile != "mix" && workload.ByName(req.Profile) == nil {
		return fmt.Errorf("unknown profile %q (options: mix, %s)", req.Profile, strings.Join(workload.Names(), ", "))
	}
	if req.Trace == nil {
		return fmt.Errorf("missing trace (see cmd/tracegen for the schema)")
	}
	if err := req.Trace.Validate(); err != nil {
		return err
	}
	if req.Trace.Duration > experiments.MaxHorizon {
		return fmt.Errorf("trace duration %v too long (max 24h); slice the trace", req.Trace.Duration)
	}
	if req.MaxInvocations <= 0 || req.MaxInvocations > experiments.MaxInvocations {
		req.MaxInvocations = experiments.MaxInvocations
	}
	if n := req.Trace.TotalInvocations(); n > req.MaxInvocations {
		return fmt.Errorf("trace has %d invocations, limit %d", n, req.MaxInvocations)
	}
	if req.KeepAliveSec > experiments.MaxHorizon.Seconds() {
		return fmt.Errorf("keep_alive_sec %gs too long (max 24h)", req.KeepAliveSec)
	}
	if req.KeepAliveSec <= 0 {
		req.KeepAliveSec = 600
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	return nil
}

// ReplayMemNodeStats reports the memory node's storage outcome.
type ReplayMemNodeStats struct {
	LogicalPeakMB    float64 `json:"logical_peak_mb"`
	ResidentPeakMB   float64 `json:"resident_peak_mb"`
	DedupSavedMB     float64 `json:"dedup_saved_mb"`
	CompressSavedMB  float64 `json:"compress_saved_mb"`
	Evictions        int64   `json:"evictions"`
	QuotaRejectPages int64   `json:"quota_reject_pages"`
	FullRejectPages  int64   `json:"full_reject_pages"`
}

// ReplayResponse summarizes a replay.
type ReplayResponse struct {
	Functions      int     `json:"functions"`
	Requests       int     `json:"requests"`
	ColdStarts     int     `json:"cold_starts"`
	WarmStarts     int     `json:"warm_starts"`
	SemiWarmStarts int     `json:"semi_warm_starts"`
	AvgLocalMB     float64 `json:"avg_local_mb"`
	PeakLocalMB    float64 `json:"peak_local_mb"`
	OffloadedMB    float64 `json:"offloaded_mb"`
	OffloadBWMBps  float64 `json:"offload_bw_mbps"`
	WorstP95Sec    float64 `json:"worst_p95_sec"`
	// MemNode is present when the request enabled a memory node.
	MemNode *ReplayMemNodeStats `json:"mem_node,omitempty"`
}

func (s *server) handleReplay(w http.ResponseWriter, r *http.Request) {
	var req ReplayRequest
	if !s.decodeBody(w, r, maxReplayBody, &req) {
		return
	}
	if err := req.validate(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.replays.Inc()

	pol, _ := experiments.BuildPolicy(experiments.PolicyKind(req.Policy), core.Config{})
	profiles := workload.Profiles()
	pick := func(i int, _ *trace.Function) *workload.Profile {
		if req.Profile == "mix" {
			return profiles[i%len(profiles)]
		}
		return workload.ByName(req.Profile)
	}

	poolCfg := rmem.Config{}
	if req.MemNode != nil {
		poolCfg.Node = req.MemNode.config()
	}
	engine := simtime.NewEngine()
	p := faas.New(engine, faas.Config{
		KeepAliveTimeout: time.Duration(req.KeepAliveSec * float64(time.Second)),
		Pool:             poolCfg,
		Seed:             req.Seed,
		Telemetry:        s.tel,
	}, pol)
	p.ReplayTrace(req.Trace, func(i int, f *trace.Function) *workload.Profile {
		base := *pick(i, f)
		base.Name = f.ID
		return &base
	})
	engine.RunUntil(req.Trace.Duration + time.Duration(req.KeepAliveSec*float64(time.Second)))

	resp := ReplayResponse{
		Functions:     len(p.Functions()),
		AvgLocalMB:    p.NodeLocalAvg() / 1e6,
		PeakLocalMB:   float64(p.NodeLocalPeak()) / 1e6,
		OffloadedMB:   float64(p.Pool().Meter(rmem.Offload).Total()) / 1e6,
		OffloadBWMBps: p.Pool().Meter(rmem.Offload).Average(engine.Now()) / 1e6,
	}
	agg := p.Aggregate()
	resp.Requests = agg.Requests
	resp.ColdStarts = agg.ColdStarts
	resp.WarmStarts = agg.WarmStarts
	resp.SemiWarmStarts = agg.SemiWarmStarts
	resp.WorstP95Sec = agg.WorstP95
	if mn := p.Pool().Node(); mn != nil {
		st := mn.Stats()
		resp.MemNode = &ReplayMemNodeStats{
			LogicalPeakMB:    float64(st.PeakLogicalBytes) / 1e6,
			ResidentPeakMB:   float64(st.PeakResidentBytes) / 1e6,
			DedupSavedMB:     float64(st.DedupSavedBytes) / 1e6,
			CompressSavedMB:  float64(st.CompressSavedBytes) / 1e6,
			Evictions:        st.Evictions,
			QuotaRejectPages: st.QuotaRejectPages,
			FullRejectPages:  st.FullRejectPages,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
