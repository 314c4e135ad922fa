// Package plot renders simple line/scatter charts as standalone SVG without
// any dependency beyond the standard library. Its user is internal/expt:
// an experiment that reproduces a figure (the Figure-1 trajectory, the
// hop-scaling, failure-decay and robustness curves) attaches a Plot of its
// own run to its table, and cmd/figures writes that Plot's SVG.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted curve.
type Series struct {
	// Name appears in the legend.
	Name string
	// X and Y are the data points (equal length).
	X, Y []float64
	// Dashed draws a dashed line (used for theory curves).
	Dashed bool
	// Markers draws a circle at every point.
	Markers bool
}

// Plot is a single chart.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// LogY plots the y axis in log10 (positive values only).
	LogY bool
	// Width and Height are the SVG dimensions in pixels (defaults 640x420).
	Width, Height int
}

// palette holds the series colors (colorblind-safe).
var palette = []string{"#0072b2", "#d55e00", "#009e73", "#cc79a7", "#56b4e9", "#e69f00"}

const (
	marginLeft   = 64.0
	marginRight  = 16.0
	marginTop    = 36.0
	marginBottom = 48.0
)

// SVG renders the chart. It errors on empty or inconsistent input.
func (p *Plot) SVG() (string, error) {
	if len(p.Series) == 0 {
		return "", fmt.Errorf("plot: no series")
	}
	w, h := p.Width, p.Height
	if w == 0 {
		w = 640
	}
	if h == 0 {
		h = 420
	}
	tf := func(y float64) float64 { return y }
	if p.LogY {
		tf = math.Log10
	}
	// Data bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range p.Series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("plot: series %q has %d x but %d y values", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			if p.LogY && s.Y[i] <= 0 {
				continue
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, tf(s.Y[i]))
			maxY = math.Max(maxY, tf(s.Y[i]))
		}
	}
	if math.IsInf(minX, 1) {
		return "", fmt.Errorf("plot: no plottable points")
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	if minY == maxY {
		minY, maxY = minY-1, maxY+1
	}
	// A little headroom.
	padY := (maxY - minY) * 0.06
	minY, maxY = minY-padY, maxY+padY

	plotW := float64(w) - marginLeft - marginRight
	plotH := float64(h) - marginTop - marginBottom
	px := func(x float64) float64 { return marginLeft + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return marginTop + plotH - (y-minY)/(maxY-minY)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif" font-size="12">`+"\n", w, h, w, h)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if p.Title != "" {
		fmt.Fprintf(&b, `<text x="%g" y="20" text-anchor="middle" font-size="14" font-weight="bold">%s</text>`+"\n",
			marginLeft+plotW/2, esc(p.Title))
	}
	// Axes frame.
	fmt.Fprintf(&b, `<rect x="%g" y="%g" width="%g" height="%g" fill="none" stroke="#444"/>`+"\n",
		marginLeft, marginTop, plotW, plotH)
	// Ticks and grid.
	for _, t := range Ticks(minX, maxX, 6) {
		x := px(t)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n", x, marginTop, x, marginTop+plotH)
		fmt.Fprintf(&b, `<text x="%g" y="%g" text-anchor="middle">%s</text>`+"\n", x, marginTop+plotH+16, fmtTick(t))
	}
	for _, t := range Ticks(minY, maxY, 6) {
		y := py(t)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n", marginLeft, y, marginLeft+plotW, y)
		label := fmtTick(t)
		if p.LogY {
			label = fmtTick(math.Pow(10, t))
		}
		fmt.Fprintf(&b, `<text x="%g" y="%g" text-anchor="end">%s</text>`+"\n", marginLeft-6, y+4, label)
	}
	// Axis labels.
	if p.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%g" y="%g" text-anchor="middle">%s</text>`+"\n",
			marginLeft+plotW/2, float64(h)-8, esc(p.XLabel))
	}
	if p.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%g" text-anchor="middle" transform="rotate(-90 14 %g)">%s</text>`+"\n",
			marginTop+plotH/2, marginTop+plotH/2, esc(p.YLabel))
	}
	// Series.
	for si, s := range p.Series {
		color := palette[si%len(palette)]
		dash := ""
		if s.Dashed {
			dash = ` stroke-dasharray="6,4"`
		}
		var pts []string
		for i := range s.X {
			if p.LogY && s.Y[i] <= 0 {
				continue
			}
			pts = append(pts, fmt.Sprintf("%g,%g", px(s.X[i]), py(tf(s.Y[i]))))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"%s/>`+"\n",
				strings.Join(pts, " "), color, dash)
		}
		if s.Markers || len(pts) == 1 {
			for i := range s.X {
				if p.LogY && s.Y[i] <= 0 {
					continue
				}
				fmt.Fprintf(&b, `<circle cx="%g" cy="%g" r="3" fill="%s"/>`+"\n", px(s.X[i]), py(tf(s.Y[i])), color)
			}
		}
		// Legend entry.
		ly := marginTop + 14 + float64(si)*16
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s" stroke-width="2"%s/>`+"\n",
			marginLeft+plotW-130, ly-4, marginLeft+plotW-110, ly-4, color, dash)
		fmt.Fprintf(&b, `<text x="%g" y="%g">%s</text>`+"\n", marginLeft+plotW-104, ly, esc(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

// Ticks returns up to approximately count "nice" tick positions covering
// [lo, hi].
func Ticks(lo, hi float64, count int) []float64 {
	if count < 2 {
		count = 2
	}
	span := hi - lo
	if span <= 0 || math.IsNaN(span) || math.IsInf(span, 0) {
		return []float64{lo}
	}
	step := niceStep(span / float64(count))
	first := math.Ceil(lo/step) * step
	var ticks []float64
	for t := first; t <= hi+step*1e-9; t += step {
		// Clean floating noise like 0.30000000000000004.
		ticks = append(ticks, math.Round(t/step)*step)
	}
	return ticks
}

// niceStep rounds a raw step to 1, 2 or 5 times a power of ten.
func niceStep(raw float64) float64 {
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	frac := raw / mag
	switch {
	case frac <= 1:
		return mag
	case frac <= 2:
		return 2 * mag
	case frac <= 5:
		return 5 * mag
	default:
		return 10 * mag
	}
}

// fmtTick prints a tick value compactly.
func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av != 0 && (av < 0.01 || av >= 100000):
		return fmt.Sprintf("%.0e", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
	}
}

// esc escapes XML-special characters in labels.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
