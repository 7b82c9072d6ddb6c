package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseJSON feeds arbitrary bytes to the JSON model decoder, which
// reads workloads API clients submit. It must never panic, and any model
// it accepts must come back unchanged through WriteJSON → ParseJSON, with
// the rewritten document byte-stable from then on. The seed corpus lives
// in testdata/fuzz/FuzzParseJSON.
func FuzzParseJSON(f *testing.F) {
	f.Add([]byte(sampleJSON))
	for _, m := range Zoo()[:2] {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseJSON("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteJSON(&once, m); err != nil {
			t.Fatalf("writing an accepted model: %v", err)
		}
		back, err := ParseJSON("fuzz", bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("rewritten model does not parse: %v\n%s", err, once.Bytes())
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the model:\n%+v\n%+v", m, back)
		}
		if err := WriteJSON(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("rewritten document is not stable:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
