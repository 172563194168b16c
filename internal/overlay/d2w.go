package overlay

import (
	"yap/internal/num"
	"yap/internal/wafer"
)

// PlacementSpread is the die-to-die variation of the systematic overlay
// terms in D2W bonding (§III-E-1: "the systematic overlay error
// independently happens die-to-die"). Each die placement draws its own
// translation, rotation and magnification around the process means; the
// spreads below are the standard deviations of those draws, quoted at the
// same reference radius as the Distortion means (Table I's starred
// "Mean (Std.)" entries).
type PlacementSpread struct {
	// TXSigma and TYSigma are the translation spreads (m).
	TXSigma, TYSigma float64
	// RotationSigma is the rotation spread (rad).
	RotationSigma float64
	// MagnificationSigma is the magnification spread (dimensionless),
	// typically k_mag times the warpage spread via Eq. 2.
	MagnificationSigma float64
}

// Zero reports whether the spread is entirely deterministic.
func (s PlacementSpread) Zero() bool {
	return s.TXSigma == 0 && s.TYSigma == 0 && s.RotationSigma == 0 && s.MagnificationSigma == 0
}

// ExpectedDieYieldD2W returns the placement-averaged Y_ovl,D2W for the
// paper's uniform pad grid: ExpectedDieYieldD2WRegions on the one full-die
// region.
func (m Model) ExpectedDieYieldD2W(dieW, dieH, refRadius float64, spread PlacementSpread) float64 {
	return m.ExpectedDieYieldD2WRegions(dieW, dieH, refRadius, spread, m.fullDie(dieW, dieH))
}

// ExpectedDieYieldD2WRegions returns Y_ovl,D2W for a pad layout averaged
// over the die-to-die placement variation: E[POS_die] with
// (T_x, T_y, α, E) drawn independently normal around the model's
// Distortion with the given spreads, each draw rescaled to the die
// (ScaleToDie) and evaluated through the region-product POS (Eq. 23).
//
// The translation and rotation dimensions are smooth at the σ₁ scale and
// use the 7-point Gauss–Hermite tensor of num.ExpectNormal; the
// magnification dimension — whose spread moves the corner misalignment by
// far more than the random-error width, making POS nearly a step function
// of E — is integrated adaptively in probability space
// (num.ExpectNormalAdaptive), split at zero magnification: the corners
// move least there, so each region's survival window is centred near it.
// A saturated point, whose POS is 1 on the first nodes, costs 9 adaptive
// nodes × 7³ Gauss–Hermite nodes = 3,087 region-product POS evaluations;
// informative ones averaged 150–250 adaptive nodes on the fine-pitch sets
// of the accuracy test (261 at the 0.8 µm pin point). A corner's Δx
// depends only on the T_x and rotation nodes and its Δy only on the T_y
// and rotation nodes, so each adaptive node tabulates them with their
// squares, 49 rows per region for each; Δx is tabulated one T_x node at a
// time, which keeps the tables at 56 rows per region. A Gauss–Hermite node
// then costs, per region, four adds, MaxCornerNorm's straight-line
// ranking, one Hypot where the ranking is certain and one PadPOS, and
// allocates nothing. Each node value and each weighted sum is the float64
// operation that DiePOSRegions and num.ExpectNormal perform, on the same
// operands in the same order, so the result is theirs bit for bit.
func (m Model) ExpectedDieYieldD2WRegions(dieW, dieH, refRadius float64, spread PlacementSpread, regions []PadRegion) float64 {
	if spread.Zero() {
		return m.DieYieldD2WRegions(dieW, dieH, refRadius, regions)
	}
	var q placementQuad
	q.init(m, wafer.HalfDiagonal(dieW, dieH), refRadius, spread, regions)
	y := num.ExpectNormalAdaptive(q.expect, m.Dist.Magnification, spread.MagnificationSigma, 0)
	// Simpson's extrapolation can push a probability near 0 or 1 just past
	// its bounds; a yield must stay in [0, 1].
	return num.Clamp(y, 0, 1)
}

// placementQuad is the integrand of ExpectedDieYieldD2WRegions' adaptive
// magnification rule: the Gauss–Hermite expectation over (T_x, T_y, α) of
// the region-product POS at one magnification, over per-call tables.
type placementQuad struct {
	regions     []PadRegion
	sigma1      float64
	scale       float64 // ScaleToDie's factor: α′ = α·scale, E′ = E·scale
	tx, ty, rot num.GaussHermite
	// At the current magnification node E′, y[(j·rot.N+k)·len(regions)+r]
	// holds Displacement's Δy = T_y,j + α′_k·c_x + E′·c_y at the corners c
	// of region r's pad array, for node j of the T_y rule and node k of
	// the rotation rule, and at the current T_x node i,
	// x[k·len(regions)+r] holds Δx = T_x,i − α′_k·c_y + E′·c_x.
	x, y []axisRow
}

// axisRow is one displacement component at the four corners of a pad
// array, in Rect.Corners order, with its squares.
type axisRow struct{ d, sq [4]float64 }

// init resolves q for one call, with its tables in a single allocation.
func (q *placementQuad) init(m Model, halfDiag, refRadius float64, spread PlacementSpread, regions []PadRegion) {
	*q = placementQuad{
		regions: regions,
		sigma1:  m.Sigma1,
		// 1 where ScaleToDie leaves the distortion as is; x·1 is x.
		scale: Distortion{Rotation: 1}.ScaleToDie(refRadius, halfDiag).Rotation,
		tx:    num.NewGaussHermite(m.Dist.TX, spread.TXSigma),
		ty:    num.NewGaussHermite(m.Dist.TY, spread.TYSigma),
		rot:   num.NewGaussHermite(m.Dist.Rotation, spread.RotationSigma),
	}
	rows := make([]axisRow, (1+q.ty.N)*q.rot.N*len(regions))
	q.x, q.y = rows[:q.rot.N*len(regions)], rows[q.rot.N*len(regions):]
}

// expect returns E over (T_x, T_y, α) of the region-product POS at
// magnification mag, folding T_x outermost and α innermost as
// num.ExpectNormal does.
func (q *placementQuad) expect(mag float64) float64 {
	mag *= q.scale
	n, nr := len(q.regions), q.rot.N
	for k := 0; k < nr; k++ {
		rot := q.rot.X[k] * q.scale
		for r := range q.regions {
			for j := 0; j < q.ty.N; j++ {
				row := &q.y[(j*nr+k)*n+r]
				for c, v := range q.regions[r].Rect.Corners() {
					d := q.ty.X[j] + rot*v.X + mag*v.Y
					row.d[c], row.sq[c] = d, float64(d*d)
				}
			}
		}
	}
	var vx [7]float64
	for i := 0; i < q.tx.N; i++ {
		for k := 0; k < nr; k++ {
			rot := q.rot.X[k] * q.scale
			for r := range q.regions {
				row := &q.x[k*n+r]
				for c, v := range q.regions[r].Rect.Corners() {
					d := q.tx.X[i] - rot*v.Y + mag*v.X
					row.d[c], row.sq[c] = d, float64(d*d)
				}
			}
		}
		var vy [7]float64
		for j := 0; j < q.ty.N; j++ {
			var vr [7]float64
			for k := 0; k < nr; k++ {
				vr[k] = q.pos(q.x[k*n:][:n], q.y[(j*nr+k)*n:][:n])
			}
			vy[j] = q.rot.Expect(&vr)
		}
		vx[i] = q.ty.Expect(&vy)
	}
	return q.tx.Expect(&vx)
}

// pos is DiePOSRegions at one node, given the node's x and y rows: each
// region's worst corner through PadPOS, multiplied in region order.
func (q *placementQuad) pos(x, y []axisRow) float64 {
	y, regions := y[:len(x)], q.regions[:len(x)]
	pos := 1.0
	for r := range x {
		xr, yr := &x[r], &y[r]
		sq := [4]float64{xr.sq[0] + yr.sq[0], xr.sq[1] + yr.sq[1], xr.sq[2] + yr.sq[2], xr.sq[3] + yr.sq[3]}
		pos *= PadPOS(MaxCornerNorm(&xr.d, &yr.d, &sq), regions[r].Delta, q.sigma1)
	}
	return pos
}
