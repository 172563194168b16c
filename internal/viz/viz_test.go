package viz

import (
	"image/color"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"testing"

	"yap/internal/core"
	"yap/internal/layout"
	"yap/internal/num"
	"yap/internal/sim"
)

func TestCanvasBasics(t *testing.T) {
	c := NewCanvas(100, 50)
	if c.W() != 100 || c.H() != 50 {
		t.Fatalf("canvas dims %dx%d", c.W(), c.H())
	}
	// Background is white.
	if got := c.Img.RGBAAt(10, 10); got != White {
		t.Errorf("background = %v", got)
	}
	c.Set(5, 5, Black)
	if got := c.Img.RGBAAt(5, 5); got != Black {
		t.Errorf("set pixel = %v", got)
	}
	// Out-of-bounds writes are ignored, not panics.
	c.Set(-1, -1, Black)
	c.Set(1000, 1000, Black)
}

func TestLineEndpoints(t *testing.T) {
	c := NewCanvas(50, 50)
	c.Line(5, 5, 40, 30, Red)
	if c.Img.RGBAAt(5, 5) != Red || c.Img.RGBAAt(40, 30) != Red {
		t.Error("line endpoints not drawn")
	}
	// Degenerate (single-point) line.
	c.Line(10, 10, 10, 10, Blue)
	if c.Img.RGBAAt(10, 10) != Blue {
		t.Error("degenerate line not drawn")
	}
	// Vertical and horizontal lines.
	c.Line(20, 5, 20, 45, Green)
	for y := 5; y <= 45; y++ {
		if c.Img.RGBAAt(20, y) != Green {
			t.Fatalf("vertical line gap at y=%d", y)
		}
	}
}

func TestFillAndStrokeRect(t *testing.T) {
	c := NewCanvas(30, 30)
	c.FillRect(5, 5, 10, 8, Blue)
	if c.Img.RGBAAt(5, 5) != Blue || c.Img.RGBAAt(14, 12) != Blue {
		t.Error("fill rect corners missing")
	}
	if c.Img.RGBAAt(15, 5) == Blue {
		t.Error("fill rect overshoots width")
	}
	c.StrokeRect(20, 20, 5, 5, Red)
	if c.Img.RGBAAt(20, 20) != Red || c.Img.RGBAAt(24, 24) != Red {
		t.Error("stroke rect corners missing")
	}
	if c.Img.RGBAAt(22, 22) == Red {
		t.Error("stroke rect filled interior")
	}
}

func TestDiskAndCircle(t *testing.T) {
	c := NewCanvas(40, 40)
	c.Disk(20, 20, 5, Purple)
	if c.Img.RGBAAt(20, 20) != Purple || c.Img.RGBAAt(24, 20) != Purple {
		t.Error("disk missing pixels")
	}
	if c.Img.RGBAAt(27, 20) == Purple {
		t.Error("disk overshoots radius")
	}
	c2 := NewCanvas(40, 40)
	c2.Circle(20, 20, 10, Black)
	if c2.Img.RGBAAt(30, 20) != Black || c2.Img.RGBAAt(20, 10) != Black {
		t.Error("circle cardinal points missing")
	}
	if c2.Img.RGBAAt(20, 20) == Black {
		t.Error("circle filled center")
	}
}

func TestTextRendering(t *testing.T) {
	c := NewCanvas(100, 20)
	c.Text(2, 2, "Y=0.81", Black)
	// Some ink must have landed.
	ink := 0
	for x := 0; x < 100; x++ {
		for y := 0; y < 20; y++ {
			if c.Img.RGBAAt(x, y) == Black {
				ink++
			}
		}
	}
	if ink < 20 {
		t.Errorf("text rendered only %d pixels", ink)
	}
	if TextWidth("abc") != 3*glyphWidth {
		t.Errorf("TextWidth = %d", TextWidth("abc"))
	}
	// Unknown glyphs must not panic.
	c.Text(2, 12, "→❤", Black)
}

func TestFontCoversNeededGlyphs(t *testing.T) {
	needed := "0123456789.+-=/%(),:^_ " +
		"abcdefghijklmnopqrstuvwxyz" +
		"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	for _, r := range needed {
		if _, ok := font5x7[r]; !ok {
			t.Errorf("font missing glyph %q", r)
		}
	}
}

func TestSavePNGRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.png")
	c := NewCanvas(10, 10)
	c.Set(3, 3, Red)
	if err := c.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 10 || img.Bounds().Dy() != 10 {
		t.Errorf("decoded size %v", img.Bounds())
	}
	r, g, b, _ := img.At(3, 3).RGBA()
	if r>>8 != 200 || g>>8 != 50 || b>>8 != 50 {
		t.Errorf("pixel round trip = %d,%d,%d", r>>8, g>>8, b>>8)
	}
}

func TestSavePNGBadPath(t *testing.T) {
	c := NewCanvas(5, 5)
	if err := c.SavePNG("/nonexistent-dir-xyz/out.png"); err == nil {
		t.Error("expected error for bad path")
	}
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(0, 1, 5)
	if len(ticks) < 3 || len(ticks) > 8 {
		t.Errorf("ticks = %v", ticks)
	}
	for _, tk := range ticks {
		if tk < 0 || tk > 1+1e-9 {
			t.Errorf("tick %g outside range", tk)
		}
	}
	if niceTicks(1, 1, 5) != nil {
		t.Error("degenerate range should give no ticks")
	}
}

func TestFormatTick(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{0.5, "0.5"},
		{1234567, "1.2e+06"},
		{0.0001, "1.0e-04"},
	}
	for _, c := range cases {
		if got := FormatTick(c.in); got != c.want {
			t.Errorf("FormatTick(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCorrelationPlot(t *testing.T) {
	simv := []float64{0.1, 0.5, 0.9, 0.75}
	modelv := []float64{0.12, 0.48, 0.91, 0.74}
	c := CorrelationPlot(simv, modelv, "test correlation")
	if c.W() == 0 || c.H() == 0 {
		t.Fatal("empty canvas")
	}
	// Purple markers must appear.
	found := false
	for x := 0; x < c.W() && !found; x++ {
		for y := 0; y < c.H(); y++ {
			if c.Img.RGBAAt(x, y) == Purple {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no scatter markers rendered")
	}
}

func TestDistributionPlot(t *testing.T) {
	h, err := num.NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%10) + 0.5)
	}
	pdf := func(x float64) float64 { return 0.1 }
	c := DistributionPlot(h, pdf, "flat", "x", 1)
	if c.W() == 0 {
		t.Fatal("empty canvas")
	}
	// The red analytic curve must appear.
	found := false
	for x := 0; x < c.W() && !found; x++ {
		for y := 0; y < c.H(); y++ {
			if c.Img.RGBAAt(x, y) == Red {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("analytic curve not rendered")
	}
}

func TestGroupedBarChart(t *testing.T) {
	groups := []BarGroup{
		{Label: "a", Values: []float64{0.9, 0.8, 0.7, 0.6}},
		{Label: "b", Values: []float64{0.5, 0.4, 0.3, 0.2}},
	}
	c := GroupedBarChart(groups, []string{"s1", "s2", "s3", "s4"}, "bars")
	if c.W() == 0 {
		t.Fatal("empty canvas")
	}
	// Empty input should not panic.
	_ = GroupedBarChart(nil, []string{"x"}, "empty")
}

func TestWaferMapRendering(t *testing.T) {
	p := core.Baseline()
	m, err := sim.GenerateVoidMap(p, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	c := WaferMap(m, "test map")
	if c.W() == 0 {
		t.Fatal("empty canvas")
	}
	// Blue tails and red voids must appear somewhere.
	var blue, red bool
	for x := 0; x < c.W(); x++ {
		for y := 0; y < c.H(); y++ {
			switch c.Img.RGBAAt(x, y) {
			case Blue:
				blue = true
			case Red:
				red = true
			}
		}
	}
	if !blue || !red {
		t.Errorf("wafer map missing voids: blue=%v red=%v", blue, red)
	}
}

// TestWaferMapShadesLayoutRegions: with a two-region pad layout every
// region of a killed die is shaded and no region of a surviving die is.
func TestWaferMapShadesLayoutRegions(t *testing.T) {
	p := core.Baseline()
	w, h := p.DieWidth, p.DieHeight
	p.PadLayout = &layout.Layout{Regions: []layout.Region{
		{Name: "west", X0: -w / 2, Y0: -h / 2, X1: -w / 6, Y1: h / 2},
		{Name: "east", X0: w / 6, Y0: -h / 2, X1: w / 2, Y1: h / 2},
	}}
	m, err := sim.GenerateVoidMap(p, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PadRects) != 2*len(m.Dies) {
		t.Fatalf("%d pad rects for %d dies of 2 regions", len(m.PadRects), len(m.Dies))
	}
	if k := m.KilledCount(); k == 0 || k == len(m.Dies) {
		t.Fatalf("%d of %d dies killed; the map does not exercise both verdicts", k, len(m.Dies))
	}
	const size = 700 // WaferMap's canvas geometry
	c := WaferMap(m, "layout map")
	cx, cy := size/2, 30+(size-30)/2
	scale := float64(size-60) / (2 * m.WaferRadius)
	killedFill := color.RGBA{245, 160, 160, 255}
	for k, rect := range m.PadRects {
		mid := rect.Center()
		got := c.Img.RGBAAt(cx+int(mid.X*scale), cy-int(mid.Y*scale))
		if got == Blue || got == Red { // a void drawn over the region
			continue
		}
		if killed := m.Killed[k/2]; (got == killedFill) != killed {
			t.Errorf("rect %d of die %d (killed %v) has center pixel %v", k%2, k/2, killed, got)
		}
	}
}

func TestLineChart(t *testing.T) {
	s := []Series{
		{Name: "a", X: []float64{1, 2, 3}, Y: []float64{0.5, 0.7, 0.9}},
		{Name: "b", X: []float64{1, 2, 3}, Y: []float64{0.9, 0.6, 0.3}, Dashed: true},
	}
	c := LineChart(s, "lines", "x", "y", false)
	if c.W() == 0 {
		t.Fatal("empty canvas")
	}
	var blue, red bool
	for x := 0; x < c.W(); x++ {
		for y := 0; y < c.H(); y++ {
			switch c.Img.RGBAAt(x, y) {
			case Blue:
				blue = true
			case Red:
				red = true
			}
		}
	}
	if !blue || !red {
		t.Errorf("series colors missing: blue=%v red=%v", blue, red)
	}
	// Log axis and empty input must not panic.
	_ = LineChart(s, "log", "x", "y", true)
	_ = LineChart(nil, "empty", "x", "y", false)
	// Degenerate single-point series.
	_ = LineChart([]Series{{Name: "p", X: []float64{2}, Y: []float64{0.5}}}, "pt", "x", "y", false)
}

func TestYieldMap(t *testing.T) {
	p := core.Baseline()
	dies, err := p.W2WDieYields()
	if err != nil {
		t.Fatal(err)
	}
	c := YieldMap(dies, p.WaferRadius(), "yield map")
	if c.W() == 0 {
		t.Fatal("empty canvas")
	}
	// Die cells must be colored (non-white interior somewhere central).
	// Offset from the exact center: the wafer center sits on a die-grid
	// border, which renders as the gray stroke.
	mid := c.W()/2 + 7
	colored := false
	for dy := -50; dy <= 50 && !colored; dy++ {
		px := c.Img.RGBAAt(mid, c.H()/2+dy)
		if px != White && px != Gray && px != Black {
			colored = true
		}
	}
	if !colored {
		t.Error("yield map center not colored")
	}
	// Empty input must not panic.
	_ = YieldMap(nil, p.WaferRadius(), "empty")
}

func TestHeatmap(t *testing.T) {
	values := [][]float64{
		{0.1, 0.5, 0.9},
		{0.3, 0.7, 0.95},
	}
	c := Heatmap(values, []string{"a", "b", "c"}, []string{"r0", "r1"},
		"window", "x", "y", 0.8)
	if c.W() == 0 {
		t.Fatal("empty canvas")
	}
	// Low cells red-ish, high cells green-ish: sample the first and last
	// cell centers.
	lowCol := yieldColor(0.1)
	highCol := yieldColor(0.95)
	if lowCol.R < lowCol.G {
		t.Errorf("low yield color %v should be red-dominant", lowCol)
	}
	if highCol.G < highCol.R {
		t.Errorf("high yield color %v should be green-dominant", highCol)
	}
	// Degenerate inputs must not panic.
	_ = Heatmap(nil, nil, nil, "empty", "x", "y", 0.5)
	_ = Heatmap([][]float64{{math.NaN()}}, []string{"a"}, []string{"b"}, "nan", "x", "y", 0.5)
}

func TestYieldColorClamps(t *testing.T) {
	if yieldColor(-0.5) != yieldColor(0) {
		t.Error("below-zero not clamped")
	}
	if yieldColor(1.5) != yieldColor(1) {
		t.Error("above-one not clamped")
	}
	if yieldColor(math.NaN()) != Gray {
		t.Error("NaN should be gray")
	}
}

func TestColorsAreOpaque(t *testing.T) {
	for _, col := range []color.RGBA{White, Black, Gray, Purple, Blue, Red, Green, Orange} {
		if col.A != 255 {
			t.Errorf("color %v not opaque", col)
		}
	}
}
