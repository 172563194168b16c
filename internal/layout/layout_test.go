package layout

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"yap/internal/overlay"
	"yap/internal/wafer"
)

// basePads is a Table-I-like die-level geometry for resolution defaults.
func basePads() overlay.PadGeometry {
	return overlay.PadGeometry{
		Pitch:                    6e-6,
		TopDiameter:              2e-6,
		BottomDiameter:           3e-6,
		ContactAreaFraction:      0.75,
		CriticalDistanceFraction: 0.75,
	}
}

const dieW, dieH = 10e-3, 10e-3

func TestUniformMatchesLegacyGrid(t *testing.T) {
	pads := basePads()
	uni := Uniform(dieW, dieH, pads)
	if err := uni.Validate(dieW, dieH, pads); err != nil {
		t.Fatalf("Uniform layout invalid: %v", err)
	}
	grids := uni.Grids(pads)
	if len(grids) != 1 {
		t.Fatalf("Uniform resolves to %d regions, want 1", len(grids))
	}
	legacy := wafer.PadArrayFor(dieW, dieH, pads.Pitch)
	if grids[0].Grid != legacy {
		t.Errorf("Uniform grid %+v differs from legacy PadArrayFor %+v", grids[0].Grid, legacy)
	}
	if grids[0].Geometry != pads {
		t.Errorf("Uniform geometry %+v differs from die-level %+v", grids[0].Geometry, pads)
	}
	if got, want := uni.TotalPads(pads), legacy.Pads(); got != want {
		t.Errorf("TotalPads = %d, want %d", got, want)
	}
}

func TestGeometryInheritance(t *testing.T) {
	def := basePads()
	// Zero-valued fields inherit; set fields override.
	r := Region{X0: -1e-3, Y0: -1e-3, X1: 1e-3, Y1: 1e-3, Pitch: 12e-6}
	g := r.Geometry(def)
	if g.Pitch != 12e-6 {
		t.Errorf("explicit pitch not kept: %g", g.Pitch)
	}
	if g.TopDiameter != def.TopDiameter || g.BottomDiameter != def.BottomDiameter ||
		g.ContactAreaFraction != def.ContactAreaFraction ||
		g.CriticalDistanceFraction != def.CriticalDistanceFraction {
		t.Errorf("unset fields did not inherit die-level values: %+v", g)
	}
	if full := (Region{}).Geometry(def); full != def {
		t.Errorf("all-zero region resolves to %+v, want die default %+v", full, def)
	}
}

func TestValidateTable(t *testing.T) {
	def := basePads()
	half := dieW / 2
	ok := Region{Name: "core", X0: -half, Y0: -half, X1: 0, Y1: half}
	cases := []struct {
		name    string
		l       Layout
		wantErr string // substring; empty = valid
	}{
		{"empty layout", Layout{}, "no regions"},
		{"valid single", Layout{Regions: []Region{ok}}, ""},
		{"valid adjacent pair", Layout{Regions: []Region{
			ok,
			{Name: "io", X0: 0, Y0: -half, X1: half, Y1: half, Pitch: 12e-6},
		}}, ""},
		{"empty rectangle", Layout{Regions: []Region{
			{Name: "dot", X0: 1e-3, Y0: 1e-3, X1: 1e-3, Y1: 2e-3},
		}}, `region 0 ("dot"): empty rectangle`},
		{"inverted rectangle", Layout{Regions: []Region{
			{X0: 1e-3, Y0: -1e-3, X1: -1e-3, Y1: 1e-3},
		}}, "region 0: empty rectangle"},
		{"outside die", Layout{Regions: []Region{
			{Name: "hang", X0: 0, Y0: 0, X1: dieW, Y1: 1e-3},
		}}, `region 0 ("hang")`},
		{"overlapping interiors", Layout{Regions: []Region{
			ok,
			{Name: "io", X0: -1e-3, Y0: -half, X1: half, Y1: half},
		}}, `region 1 ("io") overlaps region 0 ("core")`},
		{"no pads fit", Layout{Regions: []Region{
			{Name: "tiny", X0: 0, Y0: 0, X1: 2e-6, Y1: 2e-6},
		}}, `region 0 ("tiny"): no pads fit`},
		{"bad region geometry", Layout{Regions: []Region{
			{Name: "fat", X0: -half, Y0: -half, X1: half, Y1: half, TopPadDiameter: 8e-6},
		}}, `region 0 ("fat")`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.l.Validate(dieW, dieH, def)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateRejectsNonFinite: NaN and ±Inf in any float64 field of a
// region are rejected with the region and the field named, one case per
// field.
func TestValidateRejectsNonFinite(t *testing.T) {
	half := dieW / 2
	cases := []struct {
		field string
		set   func(*Region, float64)
	}{
		{"X0", func(r *Region, v float64) { r.X0 = v }},
		{"Y0", func(r *Region, v float64) { r.Y0 = v }},
		{"X1", func(r *Region, v float64) { r.X1 = v }},
		{"Y1", func(r *Region, v float64) { r.Y1 = v }},
		{"Pitch", func(r *Region, v float64) { r.Pitch = v }},
		{"TopPadDiameter", func(r *Region, v float64) { r.TopPadDiameter = v }},
		{"BottomPadDiameter", func(r *Region, v float64) { r.BottomPadDiameter = v }},
		{"ContactAreaFraction", func(r *Region, v float64) { r.ContactAreaFraction = v }},
		{"CriticalDistanceFraction", func(r *Region, v float64) { r.CriticalDistanceFraction = v }},
	}
	for _, tc := range cases {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			l := Layout{Regions: []Region{
				{Name: "core", X0: -half, Y0: -half, X1: 0, Y1: half},
				{Name: "io", X0: 0, Y0: -half, X1: half, Y1: half, Pitch: 12e-6},
			}}
			tc.set(&l.Regions[1], v)
			err := l.Validate(dieW, dieH, basePads())
			if want := `region 1 ("io"): ` + tc.field + " is"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %v: error %v, want one containing %q", tc.field, v, err, want)
			}
		}
	}
}

func TestSharedEdgesLegal(t *testing.T) {
	def := basePads()
	half := dieW / 2
	quad := Layout{Regions: []Region{
		{Name: "q1", X0: -half, Y0: -half, X1: 0, Y1: 0},
		{Name: "q2", X0: 0, Y0: -half, X1: half, Y1: 0},
		{Name: "q3", X0: -half, Y0: 0, X1: 0, Y1: half},
		{Name: "q4", X0: 0, Y0: 0, X1: half, Y1: half},
	}}
	if err := quad.Validate(dieW, dieH, def); err != nil {
		t.Fatalf("quadrant layout sharing edges rejected: %v", err)
	}
}

func TestCanonicalBytes(t *testing.T) {
	def := basePads()
	a := Uniform(dieW, dieH, def)
	b := Uniform(dieW, dieH, def)
	if !bytes.Equal(a.CanonicalBytes(), b.CanonicalBytes()) {
		t.Error("equal layouts serialize differently")
	}
	if !a.Equal(b) {
		t.Error("equal layouts compare unequal")
	}

	c := Uniform(dieW, dieH, def)
	c.Regions[0].Pitch *= 2
	if bytes.Equal(a.CanonicalBytes(), c.CanonicalBytes()) {
		t.Error("pitch change not reflected in canonical bytes")
	}
	if a.Equal(c) {
		t.Error("pitch change not reflected in Equal")
	}

	d := Uniform(dieW, dieH, def)
	d.Regions[0].Name = "other"
	if bytes.Equal(a.CanonicalBytes(), d.CanonicalBytes()) {
		t.Error("name change not reflected in canonical bytes")
	}

	// Negative zero folds into positive zero, consistently with Go's
	// float == used by Equal.
	e := Layout{Regions: []Region{{X0: 0, Y0: -1e-3, X1: 1e-3, Y1: 1e-3}}}
	f := Layout{Regions: []Region{{X0: math.Copysign(0, -1), Y0: -1e-3, X1: 1e-3, Y1: 1e-3}}}
	if !bytes.Equal(e.CanonicalBytes(), f.CanonicalBytes()) {
		t.Error("-0.0 and +0.0 serialize differently")
	}
	if !e.Equal(f) {
		t.Error("-0.0 and +0.0 compare unequal")
	}
}

// TestCanonicalBytesInjective spot-checks that structurally different
// layouts never share an encoding: splitting one region into two and
// moving a name across regions both change the bytes.
func TestCanonicalBytesInjective(t *testing.T) {
	one := Layout{Regions: []Region{{Name: "ab", X0: -1e-3, Y0: -1e-3, X1: 1e-3, Y1: 1e-3}}}
	two := Layout{Regions: []Region{
		{Name: "a", X0: -1e-3, Y0: -1e-3, X1: 0, Y1: 1e-3},
		{Name: "b", X0: 0, Y0: -1e-3, X1: 1e-3, Y1: 1e-3},
	}}
	if bytes.Equal(one.CanonicalBytes(), two.CanonicalBytes()) {
		t.Error("one- and two-region layouts collide")
	}
	swapped := Layout{Regions: []Region{
		{Name: "b", X0: -1e-3, Y0: -1e-3, X1: 0, Y1: 1e-3},
		{Name: "a", X0: 0, Y0: -1e-3, X1: 1e-3, Y1: 1e-3},
	}}
	if bytes.Equal(two.CanonicalBytes(), swapped.CanonicalBytes()) {
		t.Error("region-name assignment not distinguished")
	}
}

func TestGridsCenteredInRegion(t *testing.T) {
	def := basePads()
	// An off-center region whose span is not a pitch multiple: the grid
	// must be centered within the region rectangle, not the die.
	l := Layout{Regions: []Region{{Name: "corner", X0: 1e-3, Y0: 2e-3, X1: 4e-3, Y1: 4.5e-3}}}
	if err := l.Validate(dieW, dieH, def); err != nil {
		t.Fatalf("corner layout invalid: %v", err)
	}
	g := l.Grids(def)[0]
	rc := g.Rect.Center()
	gc := g.Grid.Rect.Center()
	if math.Abs(rc.X-gc.X) > 1e-12 || math.Abs(rc.Y-gc.Y) > 1e-12 {
		t.Errorf("grid center %+v not at region center %+v", gc, rc)
	}
	if g.Grid.Rect.X0 < g.Rect.X0 || g.Grid.Rect.X1 > g.Rect.X1 ||
		g.Grid.Rect.Y0 < g.Rect.Y0 || g.Grid.Rect.Y1 > g.Rect.Y1 {
		t.Errorf("grid rect %+v escapes region rect %+v", g.Grid.Rect, g.Rect)
	}
}
