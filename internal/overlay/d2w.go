package overlay

import (
	"math"

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
// of the accuracy test (261 at the 0.8 µm pin point). Everything but the
// magnification is resolved into tables once per call and the
// magnification's products once per adaptive node, so a Gauss–Hermite node
// costs two adds and one Hypot per pad-array corner and one PadPOS per
// region, and allocates nothing. Each node value and each weighted sum is
// the float64 operation that DiePOSRegions and num.ExpectNormal perform,
// on the same operands in the same order, so the result is theirs bit for
// bit.
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
// the region-product POS at one magnification, over per-call tables. Each
// table row holds one value per corner of a region's pad array, in
// Rect.Corners order.
type placementQuad struct {
	regions     []PadRegion
	sigma1      float64
	scale       float64 // ScaleToDie's factor: α′ = α·scale, E′ = E·scale
	tx, ty, rot num.GaussHermite
	// cx[r] and cy[r] are region r's corner coordinates.
	cx, cy [][4]float64
	// dx[(i·rot.N+k)·len(regions)+r] holds T_x,i − α′_k·c_y and
	// dy[(j·rot.N+k)·len(regions)+r] holds T_y,j + α′_k·c_x for region r:
	// the first add of Displacement's Δx and Δy at node i or j of the
	// translation rule and node k of the rotation rule.
	dx, dy [][4]float64
	// mx[r] and my[r] hold E′·c_x and E′·c_y at the current magnification
	// node.
	mx, my [][4]float64
}

// init resolves q's tables for one call, in a single allocation.
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
	n, nr := len(regions), q.rot.N
	rows := make([][4]float64, (4+(q.tx.N+q.ty.N)*nr)*n)
	q.cx, q.cy, q.mx, q.my, rows = rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:4*n], rows[4*n:]
	q.dx, q.dy = rows[:q.tx.N*nr*n], rows[q.tx.N*nr*n:]
	for r, reg := range regions {
		for c, v := range reg.Rect.Corners() {
			q.cx[r][c], q.cy[r][c] = v.X, v.Y
		}
	}
	for k := 0; k < nr; k++ {
		rot := q.rot.X[k] * q.scale
		for r := range regions {
			for i := 0; i < q.tx.N; i++ {
				row := &q.dx[(i*nr+k)*n+r]
				for c := range row {
					row[c] = q.tx.X[i] - rot*q.cy[r][c]
				}
			}
			for j := 0; j < q.ty.N; j++ {
				row := &q.dy[(j*nr+k)*n+r]
				for c := range row {
					row[c] = q.ty.X[j] + rot*q.cx[r][c]
				}
			}
		}
	}
}

// expect returns E over (T_x, T_y, α) of the region-product POS at
// magnification mag, folding T_x outermost and α innermost as
// num.ExpectNormal does.
func (q *placementQuad) expect(mag float64) float64 {
	mag *= q.scale
	for r := range q.cx {
		for c := range q.cx[r] {
			q.mx[r][c] = mag * q.cx[r][c]
			q.my[r][c] = mag * q.cy[r][c]
		}
	}
	n, nr := len(q.regions), q.rot.N
	var vx [7]float64
	for i := 0; i < q.tx.N; i++ {
		var vy [7]float64
		for j := 0; j < q.ty.N; j++ {
			var vr [7]float64
			for k := 0; k < nr; k++ {
				vr[k] = q.pos(q.dx[(i*nr+k)*n:][:n], q.dy[(j*nr+k)*n:][:n])
			}
			vy[j] = q.rot.Expect(&vr)
		}
		vx[i] = q.ty.Expect(&vy)
	}
	return q.tx.Expect(&vx)
}

// pos is DiePOSRegions at one node, given the node's dx and dy rows: each
// region's worst corner through PadPOS, multiplied in region order.
func (q *placementQuad) pos(dx, dy [][4]float64) float64 {
	dy, mx, my, regions := dy[:len(dx)], q.mx[:len(dx)], q.my[:len(dx)], q.regions[:len(dx)]
	pos := 1.0
	for r := range dx {
		x, y, ex, ey := &dx[r], &dy[r], &mx[r], &my[r]
		var maxS float64
		for c := range x {
			if s := math.Hypot(x[c]+ex[c], y[c]+ey[c]); s > maxS {
				maxS = s
			}
		}
		pos *= PadPOS(maxS, regions[r].Delta, q.sigma1)
	}
	return pos
}
