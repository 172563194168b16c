package core

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yap/internal/layout"
)

func TestParamsJSONRoundTrip(t *testing.T) {
	p := Baseline().WithPitch(2e-6)
	p.Warpage = 42e-6
	dir := t.TempDir()
	path := filepath.Join(dir, "process.json")
	if err := p.SaveParams(path); err != nil {
		t.Fatal(err)
	}
	q, err := LoadParams(path)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestReadParamsDefaultsToBaseline(t *testing.T) {
	// A partial file overrides only the named fields.
	q, err := ReadParams(strings.NewReader(`{"Pitch": 3e-6, "BottomPadDiameter": 1.5e-6, "TopPadDiameter": 1e-6}`))
	if err != nil {
		t.Fatal(err)
	}
	if q.Pitch != 3e-6 {
		t.Errorf("pitch = %g", q.Pitch)
	}
	base := Baseline()
	if q.WaferDiameter != base.WaferDiameter || q.DefectDensity != base.DefectDensity {
		t.Error("unspecified fields should default to baseline")
	}
}

func TestReadParamsRejectsUnknownField(t *testing.T) {
	if _, err := ReadParams(strings.NewReader(`{"Pich": 3e-6}`)); err == nil {
		t.Error("typo field accepted")
	}
}

func TestReadParamsRejectsInvalid(t *testing.T) {
	// d₂ > pitch.
	if _, err := ReadParams(strings.NewReader(`{"Pitch": 1e-6}`)); err == nil {
		t.Error("invalid combination accepted")
	}
	if _, err := ReadParams(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLoadParamsMissingFile(t *testing.T) {
	_, err := LoadParams("/nonexistent/process.json")
	if err == nil {
		t.Fatal("missing file accepted")
	}
	// The os error must stay wrapped (%w) so callers can classify the
	// failure without string matching.
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("errors.Is(err, fs.ErrNotExist) = false for %v", err)
	}
	var pathErr *fs.PathError
	if !errors.As(err, &pathErr) {
		t.Errorf("errors.As(err, *fs.PathError) = false for %v", err)
	}
}

func TestDecodeParamsWrapsJSONError(t *testing.T) {
	// A malformed body must surface the json error type through the wrap
	// chain, not just its text.
	_, err := ReadParams(strings.NewReader(`{"Pitch": "oops"}`))
	if err == nil {
		t.Fatal("malformed value accepted")
	}
	var typeErr *json.UnmarshalTypeError
	if !errors.As(err, &typeErr) {
		t.Errorf("errors.As(err, *json.UnmarshalTypeError) = false for %v", err)
	}
}

func TestLoadParamsErrorNamesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(path, []byte(`{"Pich": 3e-6}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadParams(path)
	if err == nil {
		t.Fatal("typo field accepted")
	}
	if !strings.Contains(err.Error(), "typo.json") {
		t.Errorf("error %q does not name the config file", err)
	}
}

// layoutDefaults is a defaults set carrying a two-pitch pad layout: a
// fine-pitch core block inheriting the die-level process, plus a coarse io
// column with its own pitch and pads.
func layoutDefaults() Params {
	p := Baseline()
	p.PadLayout = &layout.Layout{Regions: []layout.Region{
		{Name: "core", X0: -5e-3, Y0: -5e-3, X1: 2e-3, Y1: 5e-3},
		{Name: "io", X0: 2e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3,
			Pitch: 12e-6, TopPadDiameter: 4e-6, BottomPadDiameter: 6e-6},
	}}
	return p
}

// TestDecodeParamsOverDefaultLayout: decoding over defaults that carry a
// layout never writes them, a named layout arrives exactly as sent
// (regions that omit a field inherit the die-level value, not the default
// region at the same index), an unnamed one keeps the defaults' layout,
// and null clears it.
func TestDecodeParamsOverDefaultLayout(t *testing.T) {
	defaults := layoutDefaults()
	pristine := layoutDefaults()
	halves := `{"Warpage": 30e-6, "layout": {"regions": [
		{"name": "left", "x0": -5e-3, "y0": -5e-3, "x1": 0, "y1": 5e-3},
		{"name": "right", "x0": 0, "y0": -5e-3, "x1": 5e-3, "y1": 5e-3}]}}`

	got, err := DecodeParams(defaults, strings.NewReader(halves))
	if err != nil {
		t.Fatal(err)
	}
	if !defaults.Equal(pristine) || defaults.CanonicalHash() != pristine.CanonicalHash() {
		t.Fatalf("decode rewrote the defaults' layout: %+v", *defaults.PadLayout)
	}
	want := Baseline()
	want.Warpage = 30e-6
	want.PadLayout = &layout.Layout{Regions: []layout.Region{
		{Name: "left", X0: -5e-3, Y0: -5e-3, X1: 0, Y1: 5e-3},
		{Name: "right", X0: 0, Y0: -5e-3, X1: 5e-3, Y1: 5e-3},
	}}
	if !got.Equal(want) || got.CanonicalHash() != want.CanonicalHash() {
		t.Errorf("named layout decoded as %+v, want %+v", *got.PadLayout, *want.PadLayout)
	}
	overBaseline, err := DecodeParams(Baseline(), strings.NewReader(halves))
	if err != nil {
		t.Fatal(err)
	}
	if got.CanonicalHash() != overBaseline.CanonicalHash() {
		t.Errorf("the same body hashes %s over layout defaults and %s over Baseline",
			got.HashString(), overBaseline.HashString())
	}

	kept, err := DecodeParams(defaults, strings.NewReader(`{"Warpage": 30e-6}`))
	if err != nil {
		t.Fatal(err)
	}
	if kept.PadLayout == nil || !kept.PadLayout.Equal(*pristine.PadLayout) || kept.Warpage != 30e-6 {
		t.Errorf("unnamed layout not kept: %+v", kept.PadLayout)
	}

	cleared, err := DecodeParams(defaults, strings.NewReader(`{"layout": null}`))
	if err != nil {
		t.Fatal(err)
	}
	if cleared.PadLayout != nil || cleared.CanonicalHash() != Baseline().CanonicalHash() {
		t.Errorf(`"layout": null left %+v`, cleared.PadLayout)
	}

	if _, err := DecodeParams(defaults, strings.NewReader(`{"layout": {"regions": [{"nam": "x"}]}}`)); err == nil {
		t.Error("unknown region field accepted")
	}
	if _, err := DecodeParams(defaults, strings.NewReader(`{"layout": {"regions": []}}`)); err == nil {
		t.Error("empty layout accepted")
	}
	if !defaults.Equal(pristine) {
		t.Fatal("a rejected decode rewrote the defaults")
	}
}
