package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestColTagGrammar renders one row of small tagged structs through
// printRows, covering default and explicit formats, each scale, bool labels
// and column positions, and checks that a malformed tag is an error. The
// separator line and column padding are writeTable's and are left out.
func TestColTagGrammar(t *testing.T) {
	type plain struct {
		Name  string        `col:"name"`
		Count int           `col:"n,%d reqs"`
		Skip  float64       // untagged: not printed
		Kind  PolicyKind    `col:"policy"`
		On    bool          `col:"on"`
		Wait  time.Duration `col:"wait"`
		Ratio float64       `col:"ratio,%.2fx"`
	}
	type scaled struct {
		Share float64       `col:"share,%.1f%%,pct"`
		Vs    float64       `col:"vs base,%+.1f%%,delta"`
		Cost  time.Duration `col:"cost,%.3f ms,ms"`
		OK    bool          `col:"audit,ok|VIOLATED"`
		Bad   bool          `col:"check,ok|VIOLATED"`
	}
	type placed struct {
		A string `col:"a"`
		B string `col:"3:b"`
		C string `col:"c"`
		D string `col:"1:d"`
	}
	render := func(f func(*strings.Builder)) []string {
		var sb strings.Builder
		f(&sb)
		lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
		for i := range lines {
			lines[i] = strings.Join(strings.Fields(lines[i]), " ")
		}
		return append(lines[:2], lines[3:]...) // title, header, rows
	}
	cases := []struct {
		name string
		out  []string
		want []string
	}{
		{"defaults", render(func(sb *strings.Builder) {
			printRows(sb, "T", []plain{{Name: "web", Count: 3, Skip: 9, Kind: FaaSMem, On: true, Wait: 90 * time.Second, Ratio: 1.5}})
		}), []string{"T", "name n policy on wait ratio", "web 3 reqs faasmem true 1m30s 1.50x"}},
		{"scales and labels", render(func(sb *strings.Builder) {
			printRows(sb, "S", []scaled{{Share: 0.125, Vs: 1.02, Cost: 1500 * time.Microsecond, OK: true}})
		}), []string{"S", "share vs base cost audit check", "12.5% +2.0% 1.500 ms ok VIOLATED"}},
		{"positions", render(func(sb *strings.Builder) {
			printRows(sb, "P", []placed{{"1", "2", "3", "4"}})
		}), []string{"P", "d a b c", "4 1 2 3"}},
	}
	for _, tc := range cases {
		if strings.Join(tc.out, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, tc.out, tc.want)
		}
	}

	bad := []struct {
		row  any
		want string
	}{
		{struct {
			X float64 `col:"x,%.1f,permille"`
		}{}, `unknown scale "permille"`},
		{struct {
			X int `col:"x,%d,pct"`
		}{}, `scale "pct" does not apply to int`},
		{struct {
			X int64 `col:"x,%.1f,ms"`
		}{}, `scale "ms" does not apply to int64`},
		{struct {
			X bool `col:"x,yes"`
		}{}, "is not \"true label|false label\""},
		{struct {
			X string `col:"x"`
			Y string `col:"3:y"`
		}{}, "column position 3 is past the last column"},
		{struct {
			X string `col:"0:x"`
		}{}, "column position 0 is not positive"},
		{struct {
			X float64 `col:"x,%f,pct,extra"`
		}{}, `unknown scale "pct,extra"`},
	}
	for _, tc := range bad {
		_, err := columns(reflect.TypeOf(tc.row))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%T: err = %v, want it to contain %q", tc.row, err, tc.want)
		}
	}
}
