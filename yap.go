// Package yap is the public API of YAP — Yield modeling and simulation for
// Advanced Packaging — a Go implementation of the hybrid-bonding yield
// model and Monte-Carlo yield simulator of Chen & Gupta (DAC 2025).
//
// YAP predicts the assembly yield of Cu–SiO₂ hybrid bonding for both
// wafer-to-wafer (W2W) and die-to-wafer (D2W) integration from three
// physical failure mechanisms:
//
//   - overlay errors — systematic translation/rotation/magnification
//     distortion plus random misalignment shrinking the Cu contact area and
//     the dielectric critical distance;
//   - Cu recess variations — CMP recess plus annealing expansion either
//     failing to close the Cu gap or delaminating the dielectric through
//     peeling stress;
//   - particle defects — interface particles opening main voids and, in
//     W2W, bond-wave void tails that kill every die they cross.
//
// The analytic model evaluates in microseconds–milliseconds; the simulator
// reproduces the same yields from first-principles sampling at 10⁴–10⁵×
// the cost, and is used to validate the model.
//
// # Quick start
//
//	p := yap.Baseline()                   // the paper's Table I process
//	w2w, err := yap.EvaluateW2W(p)        // analytic model, Eq. 22
//	d2w, err := yap.EvaluateD2W(p)        // analytic model, Eq. 28
//	res, err := yap.SimulateW2W(yap.SimOptions{Params: p, Wafers: 200, Seed: 1})
//
// Parameters are plain SI floats; the units subpackage constants used by
// Baseline show the intended construction style, e.g.
//
//	p.Pitch = 1e-6             // 1 µm bonding pitch
//	p = yap.WithPitch(p, 1e-6) // same, with the case-study pad-sizing rule
package yap

import (
	"context"

	"yap/internal/core"
	"yap/internal/layout"
	"yap/internal/sim"
)

// Params is a complete hybrid-bonding process description (Table I of the
// paper plus the documented DESIGN.md §2 constants). All fields are SI.
type Params = core.Params

// Breakdown is a per-mechanism yield decomposition: Overlay, Recess,
// Defect and their product Total.
type Breakdown = core.Breakdown

// SimOptions configures a Monte-Carlo simulation run.
type SimOptions = sim.Options

// SimResult reports a simulation's per-mechanism and overall yields with a
// Wilson 95% confidence interval and the elapsed wall-clock time.
type SimResult = sim.Result

// VoidMap is a materialized single-wafer defect simulation (Fig. 6).
type VoidMap = sim.VoidMap

// PadLayout partitions a die into heterogeneous pad regions (the YAP+
// extension): each region carries its own pitch and pad geometry, with
// zero-valued region fields inheriting the die-level process. Attach one
// with WithPadLayout; Params with a nil layout behave exactly as the
// paper's uniform full-die grid.
type PadLayout = layout.Layout

// PadRegion is one rectangular pad group of a PadLayout. Coordinates are
// die-local meters with the origin at the die center.
type PadRegion = layout.Region

// Baseline returns the paper's Table I baseline process.
func Baseline() Params { return core.Baseline() }

// EvaluateW2W evaluates the analytic W2W bonding-yield model (Eq. 22).
func EvaluateW2W(p Params) (Breakdown, error) { return p.EvaluateW2W() }

// EvaluateD2W evaluates the analytic D2W bonding-yield model (Eq. 28).
func EvaluateD2W(p Params) (Breakdown, error) { return p.EvaluateD2W() }

// SystemYield returns Y_sys = Y_D2W^n for a 2.5D system of total silicon
// area systemArea assembled from ⌈systemArea/dieArea⌉ chiplets with no
// redundancy (§IV-C), along with the chiplet count.
func SystemYield(p Params, systemArea float64) (float64, int, error) {
	return p.SystemYield(systemArea)
}

// SimulateW2W runs the W2W Monte-Carlo simulator (default 1000 wafer
// samples, parallel across cores, deterministic for a given seed).
func SimulateW2W(opts SimOptions) (SimResult, error) { return sim.RunW2W(opts) }

// SimulateD2W runs the D2W Monte-Carlo simulator (default 20000 die
// samples).
func SimulateD2W(opts SimOptions) (SimResult, error) { return sim.RunD2W(opts) }

// SimulateW2WContext is SimulateW2W with cooperative cancellation: a
// canceled or expired context aborts the run within one wafer's latency
// and returns the context's error. Completed runs are bit-identical to
// SimulateW2W at any worker count.
func SimulateW2WContext(ctx context.Context, opts SimOptions) (SimResult, error) {
	return sim.RunW2WContext(ctx, opts)
}

// SimulateD2WContext is SimulateD2W with cooperative cancellation (see
// SimulateW2WContext).
func SimulateD2WContext(ctx context.Context, opts SimOptions) (SimResult, error) {
	return sim.RunD2WContext(ctx, opts)
}

// GenerateVoidMap simulates one W2W wafer's particle defects and returns
// the void geometry and die kill map (Fig. 6). particles = 0 draws the
// count from the process Poisson law.
func GenerateVoidMap(p Params, seed uint64, particles int) (*VoidMap, error) {
	return sim.GenerateVoidMap(p, seed, particles)
}

// MergeSimResults folds shard results — runs over disjoint slices of one
// run's sample index space, each executed with the matching
// SimOptions.FirstSample — into the Result the single run would have
// produced, bit-identically (internal/dist uses this to shard runs across
// worker processes). See sim.Merge for the exactness contract.
func MergeSimResults(parts ...SimResult) (SimResult, error) { return sim.Merge(parts...) }

// WithPitch returns p at a new pitch with the case-study pad sizing rule
// (bottom pad = pitch/2, top pad = pitch/3).
func WithPitch(p Params, pitch float64) Params { return p.WithPitch(pitch) }

// WithDieArea returns p with a square die of the given area.
func WithDieArea(p Params, area float64) Params { return p.WithDieArea(area) }

// WithDefectDensity returns p with a new particle defect density (m⁻²).
func WithDefectDensity(p Params, density float64) Params {
	return p.WithDefectDensity(density)
}

// WithPadLayout returns p carrying the given heterogeneous pad layout.
// A nil layout is the paper's uniform pad grid, which the analytic model
// and the simulator both evaluate as the one full-die region, so an
// explicit layout equivalent to it (a single full-die region with zero
// overrides) yields bit-identical results, analytic and Monte-Carlo.
func WithPadLayout(p Params, l PadLayout) Params {
	p.PadLayout = &l
	return p
}
