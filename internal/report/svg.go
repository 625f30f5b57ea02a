package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// SVG renders the figure as a self-contained SVG line chart — the closest
// this repository gets to the paper's actual figures. Stdlib only: the
// markup is assembled by hand.
//
// Layout: margins around a plot area; x positions are evenly spaced over
// the figure's X values (the paper's processor axes are categorical
// 1,2,4,8,16,32 ladders, so even spacing matches them); y is linear from
// 0 (or the data minimum, if negative) to the data maximum.
func (f *Figure) SVG(w io.Writer) error {
	const (
		width, height = 640, 400
		ml, mr        = 70, 160 // left/right margins (right holds the legend)
		mt, mb        = 40, 50
	)
	pw, ph := width-ml-mr, height-mt-mb

	lo, hi := 0.0, math.Inf(-1)
	for _, s := range f.Series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			hi = math.Max(hi, v)
			lo = math.Min(lo, v)
		}
	}
	if !(hi > lo) {
		hi = lo + 1
	}

	xPos := func(i int) float64 {
		if len(f.X) <= 1 {
			return float64(ml + pw/2)
		}
		return float64(ml) + float64(i)*float64(pw)/float64(len(f.X)-1)
	}
	yPos := func(v float64) float64 {
		return float64(mt) + float64((1-(v-lo)/(hi-lo))*float64(ph))
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
		ml, escapeXML(f.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", ml, mt, ml, mt+ph)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", ml, mt+ph, ml+pw, mt+ph)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		ml+pw/2, height-12, escapeXML(f.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%d" font-family="sans-serif" font-size="12" transform="rotate(-90 16 %d)" text-anchor="middle">%s</text>`+"\n",
		mt+ph/2, mt+ph/2, escapeXML(f.YLabel))

	// Y grid lines and labels (5 ticks).
	for i := 0; i <= 4; i++ {
		v := lo + float64((hi-lo)*float64(i)/4)
		y := yPos(v)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n", ml, y, ml+pw, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			ml-6, y+4, formatTick(v))
	}
	// X labels.
	for i, x := range f.X {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%d</text>`+"\n",
			xPos(i), mt+ph+18, x)
	}

	colors := []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
		"#8c564b", "#17becf", "#7f7f7f", "#bcbd22"}
	for si, s := range f.Series {
		color := colors[si%len(colors)]
		var pts []string
		for i, v := range s.Values {
			if i >= len(f.X) || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xPos(i), yPos(v)))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n",
				strings.Join(pts, " "), color)
		}
		for _, p := range pts {
			var px, py float64
			fmt.Sscanf(p, "%f,%f", &px, &py)
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n", px, py, color)
		}
		// Legend entry.
		ly := mt + 14 + si*18
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			ml+pw+10, ly, ml+pw+30, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			ml+pw+36, ly+4, escapeXML(s.Name))
	}
	fmt.Fprintln(&b, `</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}

// formatTick renders an axis value compactly.
func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// escapeXML escapes the five XML special characters.
func escapeXML(s string) string {
	r := strings.NewReplacer(
		"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")
	return r.Replace(s)
}
