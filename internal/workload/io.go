package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// profileJSON is the serialized form of a Profile: sizes in MB and times in
// seconds, so hand-written files stay readable.
type profileJSON struct {
	Name              string  `json:"name"`
	Language          string  `json:"language"`
	CPUShare          float64 `json:"cpu_share"`
	RuntimeMB         float64 `json:"runtime_mb"`
	RuntimeHotMB      float64 `json:"runtime_hot_mb"`
	InitMB            float64 `json:"init_mb"`
	InitHotMB         float64 `json:"init_hot_mb"`
	JitterMB          float64 `json:"jitter_mb,omitempty"`
	JitterRegionMB    float64 `json:"jitter_region_mb,omitempty"`
	Pattern           string  `json:"pattern"`
	Objects           int     `json:"objects,omitempty"`
	ObjectsPerRequest int     `json:"objects_per_request,omitempty"`
	ParetoAlpha       float64 `json:"pareto_alpha,omitempty"`
	ExecMB            float64 `json:"exec_mb"`
	ExecTimeSec       float64 `json:"exec_time_sec"`
	InitTimeSec       float64 `json:"init_time_sec"`
	LaunchTimeSec     float64 `json:"launch_time_sec"`
	QuotaMB           float64 `json:"quota_mb"`
	RuntimeWriteRatio float64 `json:"runtime_write_ratio,omitempty"`
}

func mbToBytes(mb float64) int64 { return int64(mb * MB) }

func secToDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// MarshalJSON implements json.Marshaler with the human-readable schema.
func (p *Profile) MarshalJSON() ([]byte, error) {
	var pattern string
	switch p.Pattern {
	case FullScan:
		pattern = "full-scan"
	case ParetoObjects:
		pattern = "pareto-objects"
	default:
		pattern = "fixed-hot"
	}
	return json.Marshal(profileJSON{
		Name:              p.Name,
		Language:          p.Language.String(),
		CPUShare:          p.CPUShare,
		RuntimeMB:         float64(p.RuntimeBytes) / MB,
		RuntimeHotMB:      float64(p.RuntimeHotBytes) / MB,
		InitMB:            float64(p.InitBytes) / MB,
		InitHotMB:         float64(p.InitHotBytes) / MB,
		JitterMB:          float64(p.JitterBytes) / MB,
		JitterRegionMB:    float64(p.JitterRegionBytes) / MB,
		Pattern:           pattern,
		Objects:           p.Objects,
		ObjectsPerRequest: p.ObjectsPerRequest,
		ParetoAlpha:       p.ParetoAlpha,
		ExecMB:            float64(p.ExecBytes) / MB,
		ExecTimeSec:       p.ExecTime.Seconds(),
		InitTimeSec:       p.InitTime.Seconds(),
		LaunchTimeSec:     p.LaunchTime.Seconds(),
		QuotaMB:           float64(p.QuotaBytes) / MB,
		RuntimeWriteRatio: p.RuntimeWriteRatio,
	})
}

// checkField rejects non-finite and negative numeric profile fields at
// decode time, before unit conversion can fold them into nonsense byte
// counts or durations.
func checkField(v float64, name, field string) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("workload: profile %q: %s must be finite, got %v", name, field, v)
	}
	if v < 0 {
		return fmt.Errorf("workload: profile %q: %s must be non-negative, got %v", name, field, v)
	}
	return nil
}

// UnmarshalJSON implements json.Unmarshaler and validates the result:
// memory sizes and durations must be finite and non-negative, then the
// structural Validate pass runs on the converted profile.
func (p *Profile) UnmarshalJSON(data []byte) error {
	var j profileJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("workload: profile: %w", err)
	}
	for _, f := range []struct {
		v     float64
		field string
	}{
		{j.RuntimeMB, "runtime_mb"},
		{j.RuntimeHotMB, "runtime_hot_mb"},
		{j.InitMB, "init_mb"},
		{j.InitHotMB, "init_hot_mb"},
		{j.JitterMB, "jitter_mb"},
		{j.JitterRegionMB, "jitter_region_mb"},
		{j.ExecMB, "exec_mb"},
		{j.ExecTimeSec, "exec_time_sec"},
		{j.InitTimeSec, "init_time_sec"},
		{j.LaunchTimeSec, "launch_time_sec"},
		{j.QuotaMB, "quota_mb"},
		{j.RuntimeWriteRatio, "runtime_write_ratio"},
	} {
		if err := checkField(f.v, j.Name, f.field); err != nil {
			return err
		}
	}
	switch j.Language {
	case "Node.js", "node", "nodejs", "":
		p.Language = NodeJS
	case "Python", "python":
		p.Language = Python
	case "Java", "java":
		p.Language = Java
	default:
		return fmt.Errorf("workload: profile %q: unknown language %q", j.Name, j.Language)
	}
	switch j.Pattern {
	case "fixed-hot", "":
		p.Pattern = FixedHot
	case "full-scan":
		p.Pattern = FullScan
	case "pareto-objects":
		p.Pattern = ParetoObjects
	default:
		return fmt.Errorf("workload: profile %q: unknown pattern %q", j.Name, j.Pattern)
	}
	p.Name = j.Name
	p.CPUShare = j.CPUShare
	p.RuntimeBytes = mbToBytes(j.RuntimeMB)
	p.RuntimeHotBytes = mbToBytes(j.RuntimeHotMB)
	p.InitBytes = mbToBytes(j.InitMB)
	p.InitHotBytes = mbToBytes(j.InitHotMB)
	p.JitterBytes = mbToBytes(j.JitterMB)
	p.JitterRegionBytes = mbToBytes(j.JitterRegionMB)
	p.Objects = j.Objects
	p.ObjectsPerRequest = j.ObjectsPerRequest
	p.ParetoAlpha = j.ParetoAlpha
	p.ExecBytes = mbToBytes(j.ExecMB)
	p.ExecTime = secToDur(j.ExecTimeSec)
	p.InitTime = secToDur(j.InitTimeSec)
	p.LaunchTime = secToDur(j.LaunchTimeSec)
	p.QuotaBytes = mbToBytes(j.QuotaMB)
	p.RuntimeWriteRatio = j.RuntimeWriteRatio
	return p.Validate()
}

// ReadProfiles decodes a JSON array of profiles from r.
func ReadProfiles(r io.Reader) ([]*Profile, error) {
	var out []*Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("workload: profiles: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: profiles: empty file")
	}
	seen := map[string]bool{}
	for _, p := range out {
		if seen[p.Name] {
			return nil, fmt.Errorf("workload: profiles: duplicate name %q", p.Name)
		}
		seen[p.Name] = true
	}
	return out, nil
}

// LoadProfiles reads a profile file (see ReadProfiles).
func LoadProfiles(path string) ([]*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: profiles: %w", err)
	}
	defer f.Close()
	return ReadProfiles(f)
}
