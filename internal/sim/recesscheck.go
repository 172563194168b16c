package sim

import (
	"yap/internal/core"
	"yap/internal/randx"
)

// recessCheck is the Cu recess check both kernels run, over the regions of
// the effective pad layout (core.Params.Regions), resolved once per run.
type recessCheck struct {
	regions  []core.Region
	q        float64 // all-regions-all-pads-pass probability without drift
	sigma    float64 // common-mode drift σ; zero draws no shift
	explicit bool    // draw every pad height (Options.ExplicitPads)
}

func newRecessCheck(opts Options, regions []core.Region) recessCheck {
	return recessCheck{
		regions:  regions,
		q:        core.RecessYieldAt(regions, 0),
		sigma:    opts.Params.RecessWaferSigma,
		explicit: opts.ExplicitPads,
	}
}

// drift draws one bond event's common-mode mean shift, shared by every
// region and die of the event, and returns it with the all-pads-pass
// probability at that shift. Without drift it draws nothing.
func (c *recessCheck) drift(rng *randx.Source) (shift, q float64) {
	if c.sigma > 0 {
		shift = rng.Normal(0, c.sigma)
		return shift, core.RecessYieldAt(c.regions, shift)
	}
	return 0, c.q
}

// pass performs one die's recess check at the event's shift and its
// all-pads-pass probability q: the exact Bernoulli shortcut, or under
// ExplicitPads every pad height of every region drawn against its
// region's acceptance window (the O(N) path). The explicit draw order —
// regions in layout order, pads within a region in sequence, stopping at
// the first failure — is part of the determinism contract.
func (c *recessCheck) pass(rng *randx.Source, shift, q float64) bool {
	if !c.explicit {
		return rng.Bernoulli(q)
	}
	for i := range c.regions {
		r := &c.regions[i].Recess
		mu := r.MeanHeightSum() + shift
		sigma := r.SigmaHeightSum()
		lo, hi := r.LowerBound(), r.UpperBound()
		for n := c.regions[i].Grid.Pads(); n > 0; n-- {
			h := rng.Normal(mu, sigma)
			if h <= lo || h >= hi {
				return false
			}
		}
	}
	return true
}
