package overlay

import (
	"yap/internal/geom"
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
// and rotation nodes, so each adaptive node tabulates their squares, 7
// rows per region for Δx² (one T_x node at a time) and 49 for Δy². A
// Gauss–Hermite node then costs, per region, four adds, the largest of
// four squares, one square root (MaxCornerNorm) and the region's padLaw,
// resolved once per call, and allocates nothing. Each node value and each
// weighted sum is the float64 operation that DiePOSRegions and
// num.ExpectNormal perform, on the same operands in the same order, so
// the result is theirs bit for bit.
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
	regions     []quadRegion
	scale       float64 // ScaleToDie's factor: α′ = α·scale, E′ = E·scale
	tx, ty, rot num.GaussHermite
}

// quadRegion is one pad region's share of the tables. At the current
// magnification node E′, y[j][k] holds Displacement's squared
// Δy = T_y,j + α′_k·c_x + E′·c_y at the corners c of the region's pad
// array, in Rect.Corners order, for node j of the T_y rule and node k of
// the rotation rule, and at the current T_x node i, x[k] holds the squared
// Δx = T_x,i − α′_k·c_y + E′·c_x.
type quadRegion struct {
	law     padLaw
	corners [4]geom.Vec2
	x       [7][4]float64
	y       [7][7][4]float64
}

// init resolves q for one call, with its tables in a single allocation.
func (q *placementQuad) init(m Model, halfDiag, refRadius float64, spread PlacementSpread, regions []PadRegion) {
	*q = placementQuad{
		regions: make([]quadRegion, len(regions)),
		// 1 where ScaleToDie leaves the distortion as is; x·1 is x.
		scale: Distortion{Rotation: 1}.ScaleToDie(refRadius, halfDiag).Rotation,
		tx:    num.NewGaussHermite(m.Dist.TX, spread.TXSigma),
		ty:    num.NewGaussHermite(m.Dist.TY, spread.TYSigma),
		rot:   num.NewGaussHermite(m.Dist.Rotation, spread.RotationSigma),
	}
	for r := range regions {
		g := &q.regions[r]
		g.law, g.corners = newPadLaw(regions[r].Delta, m.Sigma1), regions[r].Rect.Corners()
	}
}

// expect returns E over (T_x, T_y, α) of the region-product POS at
// magnification mag, folding T_x outermost and α innermost as
// num.ExpectNormal does.
func (q *placementQuad) expect(mag float64) float64 {
	mag *= q.scale
	for k := 0; k < q.rot.N; k++ {
		rot := q.rot.X[k] * q.scale
		for r := range q.regions {
			g := &q.regions[r]
			for j := 0; j < q.ty.N; j++ {
				for c, v := range g.corners {
					d := q.ty.X[j] + float64(rot*v.X) + float64(mag*v.Y)
					g.y[j][k][c] = float64(d * d)
				}
			}
		}
	}
	var vx [7]float64
	for i := 0; i < q.tx.N; i++ {
		for k := 0; k < q.rot.N; k++ {
			rot := q.rot.X[k] * q.scale
			for r := range q.regions {
				g := &q.regions[r]
				for c, v := range g.corners {
					d := q.tx.X[i] - float64(rot*v.Y) + float64(mag*v.X)
					g.x[k][c] = float64(d * d)
				}
			}
		}
		var vy [7]float64
		for j := 0; j < q.ty.N; j++ {
			var vr [7]float64
			for k := 0; k < q.rot.N; k++ {
				vr[k] = q.pos(j, k)
			}
			vy[j] = q.rot.Expect(&vr)
		}
		vx[i] = q.ty.Expect(&vy)
	}
	return q.tx.Expect(&vx)
}

// pos is DiePOSRegions at the node (T_y node j, rotation node k) of the
// current T_x and magnification nodes: each region's worst corner through
// its padLaw, multiplied in region order.
func (q *placementQuad) pos(j, k int) float64 {
	pos := 1.0
	for r := range q.regions {
		g := &q.regions[r]
		x, y := &g.x[k], &g.y[j][k]
		sq := [4]float64{x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]}
		pos *= g.law.pos(MaxCornerNorm(&sq))
	}
	return pos
}
