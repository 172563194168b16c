// Package core combines the YAP overlay, Cu-recess and particle-defect
// submodels into the paper's full bonding-yield model: Y_W2W (Eq. 22) and
// Y_D2W (Eq. 28), with the Table I baseline parameter set and the derived
// quantities (pad counts, Cu density, distortion field) each evaluation
// needs. This package is the paper's primary contribution; the submodels it
// composes live in internal/overlay, internal/recess and internal/defect.
package core

import (
	"fmt"
	"math"
	"reflect"

	"yap/internal/contact"
	"yap/internal/defect"
	"yap/internal/geom"
	"yap/internal/layout"
	"yap/internal/overlay"
	"yap/internal/recess"
	"yap/internal/units"
	"yap/internal/wafer"
)

// Params is a complete hybrid-bonding process description. All fields are
// SI (meters, pascals, kelvins, m⁻²); the Baseline constructor loads the
// paper's Table I values.
type Params struct {
	// --- Geometry ---

	// Pitch is the Cu pad pitch p.
	Pitch float64
	// TopPadDiameter (d₁) and BottomPadDiameter (d₂) are the pad sizes;
	// the top pad is the smaller one.
	TopPadDiameter, BottomPadDiameter float64
	// DieWidth and DieHeight are the chiplet dimensions a and b.
	DieWidth, DieHeight float64
	// WaferDiameter is the full wafer diameter (300 mm baseline).
	WaferDiameter float64
	// EdgeExclusion is the unusable outer annulus (may be zero).
	EdgeExclusion float64

	// --- Overlay (§III-A) ---

	// RandomMisalignmentSigma is σ₁, the random overlay error std dev.
	RandomMisalignmentSigma float64
	// TranslationX and TranslationY are the systematic translations T_x, T_y.
	TranslationX, TranslationY float64
	// Rotation is the systematic rotation α (rad), referenced to the wafer
	// radius.
	Rotation float64
	// Warpage is the bonded-wafer warpage B; magnification follows Eq. 2.
	Warpage float64
	// KMag is k_mag of Eq. 2 (m⁻¹).
	KMag float64
	// ContactAreaFraction (k_ca) and CriticalDistanceFraction (k_cd) are
	// the pad-survival constraints of Eq. 6.
	ContactAreaFraction, CriticalDistanceFraction float64
	// PlacementTranslationSigma, PlacementRotationSigma and
	// PlacementWarpageSigma are the die-to-die spreads of the systematic
	// terms for D2W placement (Table I starred std values).
	PlacementTranslationSigma float64
	PlacementRotationSigma    float64
	PlacementWarpageSigma     float64

	// --- Cu recess (§III-B) ---

	// RecessTop and RecessBottom are the mean pad recess depths (positive
	// = below the dielectric plane).
	RecessTop, RecessBottom float64
	// RecessSigma is the per-pad height standard deviation.
	RecessSigma float64
	// RecessWaferSigma is the optional common-mode drift of the summed
	// mean pad height between bond events (CMP run-to-run variation;
	// extension — zero is the paper's assumption).
	RecessWaferSigma float64
	// Roughness is σ_z, the asperity-height std dev of the dielectric.
	Roughness float64
	// AsperityCapRadius is R_z of the asperity model.
	AsperityCapRadius float64
	// AdhesionEnergy is the SiO₂–SiO₂ full-contact bonding energy w (J/m²).
	AdhesionEnergy float64
	// YoungModulus and PoissonRatio describe the dielectric elastically.
	YoungModulus, PoissonRatio float64
	// DielectricThickness is t_d.
	DielectricThickness float64
	// AnnealTemp and RefTemp bound the PBA temperature ramp (K).
	AnnealTemp, RefTemp float64
	// ExpansionRate is k_exp (m/K), the per-pad Cu height gain per kelvin.
	ExpansionRate float64
	// KPeel and H0 are the peeling-stress fit constants of Eq. 10.
	KPeel, H0 float64

	// --- Particle defects (§III-C) ---

	// DefectDensity is D_t (m⁻²).
	DefectDensity float64
	// MinParticleThickness is t₀.
	MinParticleThickness float64
	// DefectShape is the Glang exponent z.
	DefectShape float64
	// KRVoid (k_r), KR0Void (k_r0) and KLTail (k_l) are the void-size fit
	// constants of Eq. 15–16.
	KRVoid, KR0Void, KLTail float64
	// RadialDefectClustering is the optional edge-weighting coefficient
	// k_c of the particle density profile D(r) ∝ 1 + k_c·(r/R)²
	// (extension after Singh [7]; zero — the paper's assumption — keeps
	// particles uniform).
	RadialDefectClustering float64

	// --- Pad layout (YAP+ extension) ---

	// PadLayout optionally partitions the die into heterogeneous pad
	// regions (YAP+; internal/layout), each with its own pitch and pad
	// geometry — region fields left zero inherit the die-level values
	// above. nil — the default — keeps the paper's single uniform grid,
	// and is equivalent to layout.Uniform over the die (pinned
	// bit-identical by property tests). Serialized as "layout" on the
	// wire; omitted when nil so layout-free parameter JSON round-trips
	// byte-stable. (The field is not named Layout because the wafer
	// floorplan accessor below already claims that name.)
	PadLayout *layout.Layout `json:"layout,omitempty"`
}

// Baseline returns the paper's Table I parameter set (mean values; the
// starred spreads appear as the Placement*Sigma fields and as the
// validation sampler's ranges). The PBA constants absent from Table I
// (anneal/reference temperature, expansion rate, asperity cap radius,
// Poisson ratio) use the documented DESIGN.md §2 values.
func Baseline() Params {
	return Params{
		Pitch:             6 * units.Micrometer,
		TopPadDiameter:    2 * units.Micrometer,
		BottomPadDiameter: 3 * units.Micrometer,
		DieWidth:          10 * units.Millimeter,
		DieHeight:         10 * units.Millimeter,
		WaferDiameter:     300 * units.Millimeter,
		EdgeExclusion:     0,

		RandomMisalignmentSigma:   5 * units.Nanometer,
		TranslationX:              5 * units.Nanometer,
		TranslationY:              5 * units.Nanometer,
		Rotation:                  0.1 * units.Microradian,
		Warpage:                   10 * units.Micrometer,
		KMag:                      0.09, // m⁻¹, Eq. 2 ⇒ E = 0.9 ppm at B = 10 µm
		ContactAreaFraction:       0.75,
		CriticalDistanceFraction:  0.75,
		PlacementTranslationSigma: 10 * units.Nanometer,
		PlacementRotationSigma:    0.05 * units.Microradian,
		PlacementWarpageSigma:     3 * units.Micrometer,

		RecessTop:           10 * units.Nanometer,
		RecessBottom:        10 * units.Nanometer,
		RecessSigma:         1 * units.Nanometer,
		Roughness:           1 * units.Nanometer,
		AsperityCapRadius:   1 * units.Micrometer,
		AdhesionEnergy:      1.2,
		YoungModulus:        73 * units.Gigapascal,
		PoissonRatio:        0.17,
		DielectricThickness: 1.5 * units.Micrometer,
		AnnealTemp:          units.FromCelsius(300),
		RefTemp:             units.FromCelsius(25),
		ExpansionRate:       0.0515 * units.NanometerPerK,
		KPeel:               6.55e15,
		H0:                  75 * units.Nanometer,

		DefectDensity:        0.1 * units.PerSquareCentimeter,
		MinParticleThickness: 1 * units.Micrometer,
		DefectShape:          3,
		KRVoid:               1.8e-4 * units.PerSquareRootUm,
		KR0Void:              230 * units.SquareRootUm,
		KLTail:               6.2e-2 * units.PerSquareRootUm,
	}
}

// Validate checks the parameter set for physical consistency, delegating to
// each submodel's validator. Every float64 field, and every layout
// region's, must be finite: a NaN slips past most of the range checks
// below (every comparison with it is false) and would evaluate, not fail.
func (p Params) Validate() error {
	v := reflect.ValueOf(p)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
			return fmt.Errorf("core: %s is %g, want a finite value", v.Type().Field(i).Name, f.Float())
		}
	}
	if p.WaferDiameter <= 0 {
		return fmt.Errorf("core: non-positive wafer diameter %g", p.WaferDiameter)
	}
	if p.RandomMisalignmentSigma < 0 {
		return fmt.Errorf("core: negative random misalignment sigma %g", p.RandomMisalignmentSigma)
	}
	if err := p.Layout().Validate(); err != nil {
		return err
	}
	if err := p.PadGeometry().Validate(); err != nil {
		return err
	}
	if err := p.RecessParams().Validate(); err != nil {
		return err
	}
	if err := p.DefectParams().Validate(); err != nil {
		return err
	}
	if p.PadLayout != nil {
		// Region validation subsumes the die-level pads-fit check below:
		// every region must hold at least one pad at its resolved pitch,
		// while the die-level pitch only serves as the inheritance default.
		if err := p.PadLayout.Validate(p.DieWidth, p.DieHeight, p.PadGeometry()); err != nil {
			return err
		}
	} else if p.PadArray().Pads() == 0 {
		return fmt.Errorf("core: no pads fit a %s x %s die at pitch %s",
			units.FormatMeters(p.DieWidth), units.FormatMeters(p.DieHeight), units.FormatMeters(p.Pitch))
	}
	// Guard the W2W die enumeration: a die much smaller than the wafer
	// explodes the floorplan (a 20 µm die on a 300 mm wafer would
	// enumerate >10⁸ sites). Real chiplets are ≥ fractions of mm²; reject
	// layouts past a generous ceiling instead of hanging.
	const maxDies = 5_000_000
	gross := math.Pi * p.WaferRadius() * p.WaferRadius() / (p.DieWidth * p.DieHeight)
	if gross > maxDies {
		return fmt.Errorf("core: ~%.2g die sites on the wafer exceed the %d limit (die too small for this wafer)",
			gross, maxDies)
	}
	return nil
}

// WaferRadius returns the wafer radius R.
func (p Params) WaferRadius() float64 { return p.WaferDiameter / 2 }

// Layout returns the wafer/die floorplan.
func (p Params) Layout() wafer.Layout {
	return wafer.Layout{
		WaferRadius:   p.WaferRadius(),
		EdgeExclusion: p.EdgeExclusion,
		DieWidth:      p.DieWidth,
		DieHeight:     p.DieHeight,
	}
}

// PadArray returns the per-die pad grid at the process pitch.
func (p Params) PadArray() wafer.PadArray {
	return wafer.PadArrayFor(p.DieWidth, p.DieHeight, p.Pitch)
}

// PadGeometry returns the overlay pad-geometry submodel inputs.
func (p Params) PadGeometry() overlay.PadGeometry {
	return overlay.PadGeometry{
		Pitch:                    p.Pitch,
		TopDiameter:              p.TopPadDiameter,
		BottomDiameter:           p.BottomPadDiameter,
		ContactAreaFraction:      p.ContactAreaFraction,
		CriticalDistanceFraction: p.CriticalDistanceFraction,
	}
}

// Magnification returns E = k_mag·B (Eq. 2).
func (p Params) Magnification() float64 {
	return overlay.MagnificationFromWarpage(p.KMag, p.Warpage)
}

// Distortion returns the wafer-level systematic distortion field.
func (p Params) Distortion() overlay.Distortion {
	return overlay.Distortion{
		TX:            p.TranslationX,
		TY:            p.TranslationY,
		Rotation:      p.Rotation,
		Magnification: p.Magnification(),
	}
}

// OverlayModel returns the overlay submodel.
func (p Params) OverlayModel() overlay.Model {
	return overlay.Model{
		Pads:   p.PadGeometry(),
		Dist:   p.Distortion(),
		Sigma1: p.RandomMisalignmentSigma,
	}
}

// PlacementSpread returns the D2W die-to-die systematic spread.
func (p Params) PlacementSpread() overlay.PlacementSpread {
	return overlay.PlacementSpread{
		TXSigma:            p.PlacementTranslationSigma,
		TYSigma:            p.PlacementTranslationSigma,
		RotationSigma:      p.PlacementRotationSigma,
		MagnificationSigma: overlay.MagnificationFromWarpage(p.KMag, p.PlacementWarpageSigma),
	}
}

// Surface returns the dielectric surface description for the contact model.
func (p Params) Surface() contact.Surface {
	return contact.Surface{
		SigmaZ:         p.Roughness,
		CapRadius:      p.AsperityCapRadius,
		YoungModulus:   p.YoungModulus,
		PoissonRatio:   p.PoissonRatio,
		AdhesionEnergy: p.AdhesionEnergy,
		Thickness:      p.DielectricThickness,
	}
}

// CuDensity returns D_Cu, the Cu pattern density of the bottom-pad array.
func (p Params) CuDensity() float64 {
	return recess.CuPatternDensity(p.BottomPadDiameter, p.Pitch)
}

// RecessParams returns the Cu-recess submodel inputs.
func (p Params) RecessParams() recess.Params {
	return recess.Params{
		MeanRecessTop:    p.RecessTop,
		MeanRecessBottom: p.RecessBottom,
		SigmaTop:         p.RecessSigma,
		SigmaBottom:      p.RecessSigma,
		WaferSigma:       p.RecessWaferSigma,
		AnnealTemp:       p.AnnealTemp,
		RefTemp:          p.RefTemp,
		ExpansionRate:    p.ExpansionRate,
		KPeel:            p.KPeel,
		H0:               p.H0,
		CuDensity:        p.CuDensity(),
		Surface:          p.Surface(),
	}
}

// DefectParams returns the particle-defect submodel inputs.
func (p Params) DefectParams() defect.Params {
	return defect.Params{
		Density:          p.DefectDensity,
		MinThickness:     p.MinParticleThickness,
		Shape:            p.DefectShape,
		KR:               p.KRVoid,
		KR0:              p.KR0Void,
		KL:               p.KLTail,
		WaferRadius:      p.WaferRadius(),
		RadialClustering: p.RadialDefectClustering,
	}
}

// EffectiveLayout returns the pad layout in effect: the explicit PadLayout
// when set, else the paper's uniform pad grid as the one full-die region
// carrying the die-level pad geometry (layout.Uniform).
func (p Params) EffectiveLayout() layout.Layout {
	if p.PadLayout != nil {
		return *p.PadLayout
	}
	return layout.Uniform(p.DieWidth, p.DieHeight, p.PadGeometry())
}

// RegionGrids resolves the effective pad layout into per-region pad grids
// with die-level inheritance applied.
func (p Params) RegionGrids() []layout.RegionGrid {
	return p.EffectiveLayout().Grids(p.PadGeometry())
}

// TotalPads returns the pad count of the effective layout, summed over its
// regions.
func (p Params) TotalPads() int {
	return p.EffectiveLayout().TotalPads(p.PadGeometry())
}

// RegionRecessParams returns the Cu-recess submodel inputs for one region's
// resolved pad geometry: identical to RecessParams except the Cu pattern
// density follows the region's bottom-pad diameter and pitch (D_Cu is the
// only recess input the pad layout touches).
func (p Params) RegionRecessParams(g overlay.PadGeometry) recess.Params {
	rp := p.RecessParams()
	rp.CuDensity = recess.CuPatternDensity(g.BottomDiameter, g.Pitch)
	return rp
}

// Region is one region of the effective pad layout, resolved once for
// every reader: the analytic model, the per-die map and both Monte-Carlo
// kernels. The paper's uniform grid is the one full-die region.
type Region struct {
	layout.RegionGrid
	// Delta is the region geometry's survivable misalignment δ.
	Delta float64
	// Corners are the corners of the pad-array rectangle Grid.Rect, in
	// Rect.Corners order.
	Corners [4]geom.Vec2
	// Recess is the Cu-recess submodel at the region's Cu pattern density.
	Recess recess.Params
}

// Regions resolves the effective pad layout into its regions, in layout
// order.
func (p Params) Regions() []Region {
	grids := p.RegionGrids()
	rs := make([]Region, len(grids))
	for i, g := range grids {
		rs[i] = Region{
			RegionGrid: g,
			Delta:      g.Geometry.MaxMisalignment(),
			Corners:    g.Grid.Rect.Corners(),
			Recess:     p.RegionRecessParams(g.Geometry),
		}
	}
	return rs
}

// Equal reports whether p and q describe the same parameter set, pad
// layout included. Params stopped being ==-comparable when it grew the
// PadLayout pointer (pointer identity is not value identity), so callers
// that compared parameter sets with == — the service cache's hash-collision
// check — use Equal instead.
func (p Params) Equal(q Params) bool {
	pl, ql := p.PadLayout, q.PadLayout
	p.PadLayout, q.PadLayout = nil, nil
	if p != q {
		return false
	}
	if (pl == nil) != (ql == nil) {
		return false
	}
	return pl == nil || pl.Equal(*ql)
}

// WithPitch returns a copy of p at a new pitch with the case-study pad
// sizing rule of §IV-B: bottom pad d₂ = p/2, top pad d₁ = p/3 (the
// baseline's 2:3 top-to-bottom ratio).
func (p Params) WithPitch(pitch float64) Params {
	q := p
	q.Pitch = pitch
	q.BottomPadDiameter = pitch / 2
	q.TopPadDiameter = pitch / 3
	return q
}

// WithDieArea returns a copy of p with a square die of the given area.
func (p Params) WithDieArea(area float64) Params {
	q := p
	side := math.Sqrt(area)
	q.DieWidth = side
	q.DieHeight = side
	return q
}

// WithDefectDensity returns a copy of p with a new particle density (m⁻²).
func (p Params) WithDefectDensity(density float64) Params {
	q := p
	q.DefectDensity = density
	return q
}
