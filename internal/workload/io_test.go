package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	data, err := json.Marshal(Profiles())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfiles(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 {
		t.Fatalf("profiles = %d", len(got))
	}
	for i, p := range Profiles() {
		g := got[i]
		if g.Name != p.Name || g.RuntimeBytes != p.RuntimeBytes ||
			g.InitBytes != p.InitBytes || g.ExecTime != p.ExecTime ||
			g.Pattern != p.Pattern || g.Language != p.Language ||
			g.Objects != p.Objects || g.QuotaBytes != p.QuotaBytes {
			t.Fatalf("profile %s changed in round trip:\nwant %+v\ngot  %+v", p.Name, p, g)
		}
	}
}

func TestReadProfilesHandWritten(t *testing.T) {
	src := `[{
		"name": "mysvc",
		"language": "python",
		"cpu_share": 0.25,
		"runtime_mb": 48,
		"runtime_hot_mb": 4,
		"init_mb": 200,
		"init_hot_mb": 80,
		"pattern": "fixed-hot",
		"exec_mb": 32,
		"exec_time_sec": 0.2,
		"init_time_sec": 1.5,
		"launch_time_sec": 0.7,
		"quota_mb": 512
	}]`
	ps, err := ReadProfiles(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	p := ps[0]
	if p.Name != "mysvc" || p.Language != Python || p.RuntimeBytes != 48*MB {
		t.Fatalf("parsed = %+v", p)
	}
	if p.ExecTime.Seconds() != 0.2 || p.QuotaBytes != 512*MB {
		t.Fatalf("times/quota = %v/%d", p.ExecTime, p.QuotaBytes)
	}
}

func TestReadProfilesErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`[]`,
		`[{"name":"a","language":"cobol","runtime_mb":10,"exec_time_sec":1,"quota_mb":100}]`,
		`[{"name":"a","language":"python","pattern":"mystery","runtime_mb":10,"exec_time_sec":1,"quota_mb":100}]`,
		`[{"name":"a","language":"python","runtime_mb":0,"exec_time_sec":1,"quota_mb":100}]`, // fails Validate
		`[{"name":"a","language":"python","runtime_mb":10,"exec_time_sec":1,"quota_mb":100},
		  {"name":"a","language":"python","runtime_mb":10,"exec_time_sec":1,"quota_mb":100}]`, // dup
	}
	for i, c := range cases {
		if _, err := ReadProfiles(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func FuzzReadProfiles(f *testing.F) {
	seed, _ := json.MarshalIndent(Profiles(), "", "  ")
	f.Add(string(seed))
	f.Add(`[]`)
	f.Add(`[{"name":"x"}]`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, data string) {
		ps, err := ReadProfiles(strings.NewReader(data))
		if err != nil {
			return
		}
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted invalid profile: %v", err)
			}
		}
	})
}
