package compiler

import "testing"

func TestProvenanceStrings(t *testing.T) {
	cases := map[Provenance]string{
		ProvNone:        "",
		ProvCompiled:    "compiled",
		ProvMemory:      "memo",
		ProvUncacheable: "uncacheable",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}
