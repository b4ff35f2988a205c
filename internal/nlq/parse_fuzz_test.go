package nlq

import (
	"reflect"
	"testing"

	"arachnet/internal/nautilus"
)

// FuzzParse feeds arbitrary text to Parse, which every /v1/ask plan
// miss runs on untrusted input: it never panics, parsing is a pure
// function of the text (the same Spec twice), and the intent is one of
// the known five. Seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	for _, q := range []string{queryCS1, queryCS2, queryCS3, queryCS4} {
		f.Add(q)
	}
	cat := nautilus.BuildCatalog()
	known := map[Intent]bool{
		IntentForensic: true, IntentCascade: true, IntentDisasterImpact: true,
		IntentCableImpact: true, IntentGeneric: true,
	}
	f.Fuzz(func(t *testing.T, q string) {
		s := Parse(q, cat)
		if again := Parse(q, cat); !reflect.DeepEqual(s, again) {
			t.Fatalf("Parse(%q) is not deterministic:\n%+v\n%+v", q, s, again)
		}
		if !known[s.Intent] {
			t.Fatalf("Parse(%q): unknown intent %q", q, s.Intent)
		}
		if s.Raw != q {
			t.Fatalf("Parse(%q): Raw %q", q, s.Raw)
		}
	})
}
