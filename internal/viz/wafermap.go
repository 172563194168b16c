package viz

import (
	"fmt"
	"image/color"

	"yap/internal/sim"
)

// WaferMap renders a simulated void map (Fig. 6 of the paper): the wafer
// outline, every die's pad regions with those of defect-killed dies
// shaded, each particle with its main void disk, and the radially swept
// void tails.
func WaferMap(m *sim.VoidMap, title string) *Canvas {
	const size = 700
	c := NewCanvas(size, size+30)
	c.Text((size-TextWidth(title))/2, 8, title, Black)

	cx, cy := size/2, 30+(size-30)/2
	// Pixels per meter: fit the wafer with a small margin.
	scale := float64(size-60) / (2 * m.WaferRadius)
	px := func(x float64) int { return cx + int(x*scale) }
	py := func(y float64) int { return cy - int(y*scale) }

	// Wafer outline.
	c.Circle(cx, cy, int(m.WaferRadius*scale), Black)

	// Pad regions: a killed die's shaded red, a survivor's light gray
	// outline. PadRects holds the same number of rects for every die.
	killedFill := color.RGBA{245, 160, 160, 255}
	for k, rect := range m.PadRects {
		x0, y0 := px(rect.X0), py(rect.Y1)
		w := px(rect.X1) - px(rect.X0)
		h := py(rect.Y0) - py(rect.Y1)
		if m.Killed[k*len(m.Dies)/len(m.PadRects)] {
			c.FillRect(x0, y0, w, h, killedFill)
		}
		c.StrokeRect(x0, y0, w, h, Gray)
	}

	// Voids: tails as dark lines, main voids as disks (at least 1 px so
	// sub-pixel voids stay visible), particles as dots.
	for _, v := range m.Voids {
		c.Line(px(v.Tail.A.X), py(v.Tail.A.Y), px(v.Tail.B.X), py(v.Tail.B.Y), Blue)
		r := int(v.MainRadius * scale)
		if r < 1 {
			r = 1
		}
		c.Disk(px(v.Particle.X), py(v.Particle.Y), r, Red)
	}

	c.Text(10, size+10, fmt.Sprintf("voids=%d killed=%d/%d dies",
		len(m.Voids), m.KilledCount(), len(m.Dies)), Black)
	return c
}
