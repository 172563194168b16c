package core

import (
	"bytes"
	"testing"
)

// FuzzDecodeParams decodes arbitrary bodies over defaults that carry a pad
// layout. Whatever the body, the defaults never change, and decoding the
// same body again gives the same params (or the same error).
//
//	go test -run '^$' -fuzz '^FuzzDecodeParams$' -fuzztime 10s ./internal/core
func FuzzDecodeParams(f *testing.F) {
	for _, seed := range []string{
		// The layout bodies the service tests send.
		`{"layout": {"regions": [
			{"name": "core", "x0": -5e-3, "y0": -5e-3, "x1": 2e-3, "y1": 5e-3},
			{"name": "io", "x0": 2e-3, "y0": -5e-3, "x1": 5e-3, "y1": 5e-3,
			 "pitch": 12e-6, "top_pad_diameter": 4e-6, "bottom_pad_diameter": 6e-6}]}}`,
		`{"layout": {"regions": []}}`,
		`{"layout": {"regions": [{"name": "hang", "x0": 0, "y0": 0, "x1": 9e-3, "y1": 1e-3}]}}`,
		`{"layout": {"regions": [
			{"name": "a", "x0": -5e-3, "y0": -5e-3, "x1": 1e-3, "y1": 5e-3},
			{"name": "b", "x0": 0, "y0": -5e-3, "x1": 5e-3, "y1": 5e-3}]}}`,
		`{"layout": {"regions": [{"name": "dot", "x0": 1e-3, "y0": 1e-3, "x1": 1e-3, "y1": 2e-3}]}}`,
		`{"layout": {"regions": [{"name": "tiny", "x0": 0, "y0": 0, "x1": 2e-6, "y1": 2e-6}]}}`,
		// One override per benchmark region class: no layout, 2 and 8 regions.
		`{"RandomMisalignmentSigma": 5e-9, "Warpage": 1e-5, "DefectDensity": 1000, "RecessSigma": 1e-9, "TranslationX": 5e-9}`,
		`{"Warpage": 1.1e-5, "layout": {"regions": [
			{"name": "core", "x0": -5e-3, "y0": -5e-3, "x1": 3e-4, "y1": 5e-3},
			{"name": "io", "x0": 3e-4, "y0": -5e-3, "x1": 5e-3, "y1": 5e-3, "pitch": 8e-6}]}}`,
		`{"DefectDensity": 900, "layout": {"regions": [
			{"name": "b00", "x0": -5e-3, "y0": -5e-3, "x1": -2.6e-3, "y1": 2e-4, "pitch": 6e-6},
			{"name": "b01", "x0": -2.6e-3, "y0": -5e-3, "x1": 1e-4, "y1": 2e-4, "pitch": 7e-6},
			{"name": "b02", "x0": 1e-4, "y0": -5e-3, "x1": 2.7e-3, "y1": 2e-4, "pitch": 8e-6},
			{"name": "b03", "x0": 2.7e-3, "y0": -5e-3, "x1": 5e-3, "y1": 2e-4, "pitch": 9e-6},
			{"name": "b10", "x0": -5e-3, "y0": 2e-4, "x1": -2.6e-3, "y1": 5e-3, "pitch": 10e-6},
			{"name": "b11", "x0": -2.6e-3, "y0": 2e-4, "x1": 1e-4, "y1": 5e-3},
			{"name": "b12", "x0": 1e-4, "y0": 2e-4, "x1": 2.7e-3, "y1": 5e-3, "pitch": 7e-6},
			{"name": "b13", "x0": 2.7e-3, "y0": 2e-4, "x1": 5e-3, "y1": 5e-3, "pitch": 6e-6}]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		defaults := layoutDefaults()
		want := defaults.CanonicalHash()
		a, errA := DecodeParams(defaults, bytes.NewReader(body))
		if got := defaults.CanonicalHash(); got != want {
			t.Fatalf("decode changed the defaults' hash from %016x to %016x", want, got)
		}
		b, errB := DecodeParams(defaults, bytes.NewReader(body))
		if got := defaults.CanonicalHash(); got != want {
			t.Fatalf("second decode changed the defaults' hash from %016x to %016x", want, got)
		}
		switch {
		case (errA == nil) != (errB == nil):
			t.Fatalf("repeated decode disagrees: %v then %v", errA, errB)
		case errA != nil:
			if errA.Error() != errB.Error() {
				t.Fatalf("repeated decode errs differently: %v then %v", errA, errB)
			}
		case !a.Equal(b) || a.CanonicalHash() != b.CanonicalHash():
			t.Fatalf("repeated decode differs: %s then %s", a.HashString(), b.HashString())
		}
	})
}
