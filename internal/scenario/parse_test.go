package scenario

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"autosec/internal/killchain"
)

// TestRoundTripDefault pins the structural round-trip guarantee on the
// canonical baseline: Parse(MarshalINI(s)) == s.
func TestRoundTripDefault(t *testing.T) {
	sp := DefaultSpec("baseline")
	got, err := Parse(sp.MarshalINI())
	if err != nil {
		t.Fatalf("Parse(MarshalINI(default)): %v", err)
	}
	if !reflect.DeepEqual(got, sp) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, sp)
	}
}

// TestRoundTripKillChain covers the write-gated [killchain] section.
func TestRoundTripKillChain(t *testing.T) {
	sp := DefaultSpec("kc")
	sp.Attacker.Type = AttackKillChain
	sp.KillChain.Defences = []string{"disable-heapdump", "least-privilege"}
	got, err := Parse(sp.MarshalINI())
	if err != nil {
		t.Fatalf("Parse(MarshalINI(killchain)): %v", err)
	}
	if !reflect.DeepEqual(got, sp) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, sp)
	}
	if !bytes.Contains(sp.MarshalINI(), []byte("[killchain]")) {
		t.Error("killchain spec did not serialize its [killchain] section")
	}
	if bytes.Contains(DefaultSpec("x").MarshalINI(), []byte("[killchain]")) {
		t.Error("non-killchain spec serialized a [killchain] section")
	}
}

// TestValidateRejectsUnknownDefence: a [killchain] defence name that is
// not a killchain.Defences() name parses but fails validation, naming
// the typo, suggesting the near miss and listing the known defences in
// Defences() order.
func TestValidateRejectsUnknownDefence(t *testing.T) {
	var known []string
	for _, d := range killchain.Defences() {
		known = append(known, d.String())
	}
	for name, suggestion := range map[string]string{
		"moat":            "",
		"least-privilage": " (did you mean least-privilege?)",
	} {
		sp, err := Parse([]byte("[scenario]\nname = a\n[attacker]\ntype = killchain\n[killchain]\ndefences = " + name + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		err = sp.Validate()
		if err == nil {
			t.Fatalf("Validate accepted [killchain] defences = %s", name)
		}
		want := `scenario: [killchain] unknown defence "` + name + `"` + suggestion + " — known: " + strings.Join(known, ", ")
		if err.Error() != want {
			t.Errorf("error = %q\nwant    %q", err, want)
		}
	}
}

// TestParseMinimal: absent keys keep their DefaultSpec values; only the
// name is required.
func TestParseMinimal(t *testing.T) {
	got, err := Parse([]byte("[scenario]\nname = tiny\n"))
	if err != nil {
		t.Fatalf("Parse minimal: %v", err)
	}
	want := DefaultSpec("tiny")
	want.Title = ""
	if !reflect.DeepEqual(got, want) {
		t.Errorf("minimal parse:\n got %+v\nwant %+v", got, want)
	}
}

// TestParseErrors pins that malformed input yields a positioned
// *ParseError naming the right line — never a panic, never a bare error.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		line  int
		frag  string
	}{
		{"unknown section", "[scenario]\nname = a\n[warp]\n", 3, `unknown section "warp"`},
		{"unknown key", "[scenario]\nname = a\n[world]\nwarp = 9\n", 4, `unknown key "warp"`},
		{"duplicate section", "[scenario]\nname = a\n[world]\n[world]\n", 4, "duplicate section"},
		{"duplicate key", "[scenario]\nname = a\nname = b\n", 3, "duplicate key"},
		{"key before section", "name = a\n", 1, "before any [section]"},
		{"unterminated header", "[scenario\n", 1, "unterminated section header"},
		{"bad int", "[scenario]\nname = a\n[world]\nzones = two\n", 4, "not an integer"},
		{"bad float", "[scenario]\nname = a\n[ids]\ntolerance = hot\n", 4, "not a number"},
		{"bad bool", "[scenario]\nname = a\n[ids]\nenabled = yes\n", 4, "not true/false"},
		{"no equals", "[scenario]\nname = a\njunk line\n", 3, "expected 'key = value'"},
		{"missing name", "[world]\nzones = 2\n", 1, "missing required key"},
		{"empty defence", "[scenario]\nname = a\n[attacker]\ntype = killchain\n[killchain]\ndefences = a,,b\n", 6, "empty defence name"},
		{"killchain wrong type", "[scenario]\nname = a\n[killchain]\ndefences =\n", 1, "[killchain] section requires attacker type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.input))
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("got %v, want *ParseError", err)
			}
			if pe.Line != tc.line {
				t.Errorf("line = %d, want %d (error: %v)", pe.Line, tc.line, pe)
			}
			if !strings.Contains(pe.Msg, tc.frag) {
				t.Errorf("error %q does not mention %q", pe.Msg, tc.frag)
			}
		})
	}
}

// TestMarshalCanonical pins the exact serialized form of the baseline,
// so the committed corpus format cannot drift silently.
func TestMarshalCanonical(t *testing.T) {
	want := `# avsec scenario — see docs/SCENARIOS.md for the format.

[scenario]
name = baseline
title = SECOC baseline (no attack)

[world]
zones = 2
endpoints_per_zone = 3
frames = 128
frame_bytes = 16
period_us = 10000

[attacker]
type = none
zone = 0
start = 32
every = 2
offset = 8
rate = 4

[protocol]
suite = SECOC
mac_bits = 0

[ids]
enabled = true
tolerance = 0.5
match_radius = 0.25
noise_std = 0.03

[run]
replicates = 2
`
	if got := string(DefaultSpec("baseline").MarshalINI()); got != want {
		t.Errorf("canonical form drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// FuzzScenarioRoundTrip is the satellite fuzz target: any input either
// fails with a positioned *ParseError (no panic) or parses to a spec
// whose canonical re-serialization parses back identically — and whose
// canonical form is a fixed point of Marshal∘Parse.
func FuzzScenarioRoundTrip(f *testing.F) {
	f.Add(string(DefaultSpec("seed-a").MarshalINI()))
	kc := DefaultSpec("seed-kc")
	kc.Attacker.Type = AttackKillChain
	kc.KillChain.Defences = []string{"secret-scrubbing"}
	f.Add(string(kc.MarshalINI()))
	f.Add("[scenario]\nname = tiny\n")
	f.Add("[scenario]\nname = a\n[ids]\ntolerance = 1e-3\nnoise_std = 0.125\n")
	f.Add("name = early\n")
	f.Add("[scenario\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		sp, err := Parse([]byte(input))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("non-positioned parse error: %v", err)
			}
			if pe.Line < 1 {
				t.Fatalf("parse error with line %d < 1: %v", pe.Line, pe)
			}
			return
		}
		canon := sp.MarshalINI()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form failed to re-parse: %v\ninput: %q\ncanonical:\n%s", err, input, canon)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("round trip diverged for %q:\n got %+v\nwant %+v", input, again, sp)
		}
		if c2 := again.MarshalINI(); !bytes.Equal(c2, canon) {
			t.Fatalf("canonical form is not a fixed point:\n first %q\nsecond %q", canon, c2)
		}
	})
}
