package span

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadChromeTrace feeds arbitrary bytes to the span-trace reader. Any
// input must give invocations or an error, never a panic, and whatever the
// reader accepts must come back unchanged through WriteChromeTrace →
// ReadChromeTrace.
func FuzzReadChromeTrace(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteChromeTrace(&golden, goldenRecorder()); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	f.Add([]byte(`{"traceEvents":[{"ph":"M","tid":1,"name":"thread_name","args":{"name":"c1"}},{"ph":"X","tid":1,"name":"r","args":{"phase":"request","kind":"warm","start_ns":10,"dur_ns":50}},{"ph":"X","tid":1,"args":{"phase":"exec","start_ns":20,"dur_ns":10}}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		invs, bgs, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		rec := NewRecorder(max(1, len(invs), len(bgs)))
		for _, inv := range invs {
			rec.Record(inv)
		}
		for _, bg := range bgs {
			rec.RecordBackground(bg)
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, rec); err != nil {
			t.Fatalf("write accepted trace: %v", err)
		}
		invs2, bgs2, err := ReadChromeTrace(&buf)
		if err != nil {
			t.Fatalf("read back written trace: %v", err)
		}
		if !reflect.DeepEqual(invs2, invs) {
			t.Fatalf("invocations changed in the round trip:\n got %+v\nwant %+v", invs2, invs)
		}
		if !reflect.DeepEqual(bgs2, bgs) {
			t.Fatalf("backgrounds changed in the round trip:\n got %+v\nwant %+v", bgs2, bgs)
		}
	})
}
