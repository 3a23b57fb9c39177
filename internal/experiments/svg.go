package experiments

// SVG rendering for grid experiments: produces a Fig. 6/8/9-style
// heatmap (nW across, nB down, one colored cell per configuration)
// using only the standard library, for people who want the figures and
// not just the tables.

import (
	"fmt"
	"math"
	"strings"
)

const (
	svgCell   = 72
	svgMargin = 56
)

// SVG renders the grid as a standalone heatmap image. Cells are
// colored on a white→steel-blue ramp from the grid minimum to maximum
// and labeled with their values; Missing cells of a degraded grid are
// gray and labeled FAIL.
func (g *GridData) SVG(title string) string {
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range g.Rel {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if math.IsInf(min, 1) {
		min, max = 0, 1
	}
	span := max - min
	if span == 0 {
		span = 1
	}

	w := svgMargin + len(Axis)*svgCell + 16
	h := svgMargin + len(Axis)*svgCell + 40
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-weight="bold">%s</text>`+"\n", svgMargin, escape(title))
	fmt.Fprintf(&b, `<text x="%d" y="38" font-size="11">nW →   (nB ↓)</text>`+"\n", svgMargin)

	for wi, nW := range Axis {
		x := svgMargin + wi*svgCell
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" text-anchor="middle">%d</text>`+"\n",
			x+svgCell/2, svgMargin-4, nW)
	}
	for bi, nB := range Axis {
		y := svgMargin + bi*svgCell
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" text-anchor="end">%d</text>`+"\n",
			svgMargin-6, y+svgCell/2+4, nB)
		for wi, nW := range Axis {
			x := svgMargin + wi*svgCell
			// A failed cell is not a measurement: neutral gray, labeled
			// FAIL as in the table, and outside the color ramp.
			fill, txt, label := "rgb(224,224,224)", "black", "FAIL"
			if !g.Missing[[2]int{nW, nB}] {
				v := g.At(nW, nB)
				t := (v - min) / span
				r, gr, bl := rampColor(t)
				fill, label = fmt.Sprintf("rgb(%d,%d,%d)", r, gr, bl), fmt.Sprintf("%.3f", v)
				if t > 0.6 {
					txt = "white"
				}
			}
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="white"/>`+"\n",
				x, y, svgCell, svgCell, fill)
			fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" text-anchor="middle" fill="%s">%s</text>`+"\n",
				x+svgCell/2, y+svgCell/2+4, txt, label)
		}
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" fill="#555">%s: %.3f – %.3f</text>`+"\n",
		svgMargin, h-10, escape(g.Metric), min, max)
	b.WriteString("</svg>\n")
	return b.String()
}

// rampColor maps t ∈ [0,1] onto a white→steel-blue ramp.
func rampColor(t float64) (r, g, b int) {
	t = math.Max(0, math.Min(1, t))
	r = int(255 - t*185)
	g = int(255 - t*125)
	b = int(255 - t*75)
	return
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	return strings.ReplaceAll(s, ">", "&gt;")
}
