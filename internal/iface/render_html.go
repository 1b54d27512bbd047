package iface

import (
	"fmt"
	"html"
	"math"
	"strings"

	"pi2/internal/engine"
	"pi2/internal/vis"
)

// RenderHTML renders a static, self-contained HTML snapshot of the
// interface: charts drawn as SVG from the session's current results,
// widgets as form elements, all positioned by the optimized layout. The
// snapshot documents the generated design; live interactivity runs through
// the Go Session runtime (DESIGN.md §4).
func RenderHTML(s *Session) (string, error) {
	results, err := s.Results()
	if err != nil {
		return "", err
	}
	return renderHTML(s.Ifc, results), nil
}

// renderHTML renders the snapshot of ifc from results, one table per tree
// as Results returns them.
func renderHTML(ifc *Interface, results []*engine.Table) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>PI2 interface</title>\n")
	b.WriteString(`<style>
body { font-family: sans-serif; }
.elem { position: absolute; }
.widget { border: 1px solid #ccc; border-radius: 4px; padding: 4px 6px; font-size: 12px; background: #fafafa; }
.widget .lbl { font-weight: bold; display: block; margin-bottom: 2px; }
.chart { border: 1px solid #ddd; }
table { border-collapse: collapse; font-size: 11px; }
td, th { border: 1px solid #ccc; padding: 1px 4px; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<div style=\"position:relative;width:%.0fpx;height:%.0fpx\">\n",
		ifc.TotalBox.W+20, ifc.TotalBox.H+20)
	for _, v := range ifc.Vis {
		box, ok := ifc.Boxes[v.ElemID]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "<div class=\"elem chart\" style=\"left:%.0fpx;top:%.0fpx;width:%.0fpx;height:%.0fpx\">\n",
			box.X, box.Y, box.W, box.H)
		renderChart(&b, &v, results[v.Tree], box.W, box.H)
		b.WriteString("</div>\n")
	}
	for _, w := range ifc.Widgets {
		box, ok := ifc.Boxes[w.ElemID]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "<div class=\"elem widget\" style=\"left:%.0fpx;top:%.0fpx;width:%.0fpx\">\n",
			box.X, box.Y, box.W)
		renderWidget(&b, &w)
		b.WriteString("</div>\n")
	}
	b.WriteString("</div></body></html>\n")
	return b.String()
}

func renderWidget(b *strings.Builder, w *WidgetSpec) {
	esc := html.EscapeString
	fmt.Fprintf(b, "<span class=\"lbl\">%s</span>", esc(w.Label))
	switch w.Kind {
	case "radio", "button":
		for i, o := range w.Options {
			checked := ""
			if i == 0 {
				checked = " checked"
			}
			fmt.Fprintf(b, "<label><input type=\"radio\" name=\"%s\"%s>%s</label><br>", esc(w.ElemID), checked, esc(o))
		}
	case "dropdown":
		fmt.Fprintf(b, "<select>")
		for _, o := range w.Options {
			fmt.Fprintf(b, "<option>%s</option>", esc(o))
		}
		fmt.Fprintf(b, "</select>")
	case "checkbox":
		for _, o := range w.Options {
			fmt.Fprintf(b, "<label><input type=\"checkbox\">%s</label><br>", esc(o))
		}
	case "toggle":
		fmt.Fprintf(b, "<label><input type=\"checkbox\" checked> enabled</label>")
	case "slider":
		fmt.Fprintf(b, "<input type=\"range\" min=\"%g\" max=\"%g\">", w.Min, w.Max)
	case "rangeslider":
		fmt.Fprintf(b, "<input type=\"range\" min=\"%g\" max=\"%g\"><input type=\"range\" min=\"%g\" max=\"%g\">",
			w.Min, w.Max, w.Min, w.Max)
	case "textbox":
		fmt.Fprintf(b, "<input type=\"text\">")
	case "adder":
		fmt.Fprintf(b, "<button>+ add</button>")
	}
}

func renderChart(b *strings.Builder, v *VisSpec, res *engine.Table, w, h float64) {
	if v.Mapping.Vis.Type == vis.Table {
		renderTable(b, res)
		return
	}
	xi, yi := v.Mapping.Col("x"), v.Mapping.Col("y")
	if xi < 0 || yi < 0 || len(res.Rows) == 0 {
		fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\"></svg>", w, h)
		return
	}
	ci := v.Mapping.Col("color")
	const pad = 30.0
	xs := scaler(res, xi, pad, w-10)
	ys := scaler(res, yi, h-20, 10) // inverted
	palette := []string{"#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377"}
	colorOf := func(row []engine.Value) string {
		if ci < 0 {
			return palette[0]
		}
		return palette[hashIdx(row[ci].Text(), len(palette))]
	}
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\">", w, h)
	fmt.Fprintf(b, "<text x=\"4\" y=\"12\" font-size=\"10\">%s</text>", html.EscapeString(v.Title))
	switch v.Mapping.Vis.Type {
	case vis.Bar:
		bw := math.Max(2, (w-pad-10)/float64(len(res.Rows))-2)
		for _, row := range res.Rows {
			x := xs(row[xi])
			y := ys(row[yi])
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"%s\"/>",
				x-bw/2, y, bw, (h-20)-y, colorOf(row))
		}
	case vis.Line:
		var pts []string
		for _, row := range res.Rows {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xs(row[xi]), ys(row[yi])))
		}
		fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>",
			strings.Join(pts, " "), palette[0])
	default: // point
		for _, row := range res.Rows {
			fmt.Fprintf(b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"%s\"/>",
				xs(row[xi]), ys(row[yi]), colorOf(row))
		}
	}
	b.WriteString("</svg>")
}

func renderTable(b *strings.Builder, res *engine.Table) {
	b.WriteString("<table><tr>")
	for _, c := range res.Cols {
		fmt.Fprintf(b, "<th>%s</th>", html.EscapeString(c))
	}
	b.WriteString("</tr>")
	for i, row := range res.Rows {
		if i >= 12 {
			fmt.Fprintf(b, "<tr><td colspan=\"%d\">… %d rows total</td></tr>", len(res.Cols), len(res.Rows))
			break
		}
		b.WriteString("<tr>")
		for _, v := range row {
			fmt.Fprintf(b, "<td>%s</td>", html.EscapeString(v.Text()))
		}
		b.WriteString("</tr>")
	}
	b.WriteString("</table>")
}

// scaler maps a column's values onto pixel range [lo, hi]; categorical
// values are spread by rank.
func scaler(res *engine.Table, col int, lo, hi float64) func(engine.Value) float64 {
	numeric := true
	for _, row := range res.Rows {
		if row[col].IsStr {
			numeric = false
			break
		}
	}
	if numeric {
		min, max := res.Rows[0][col].Num, res.Rows[0][col].Num
		for _, row := range res.Rows {
			v := row[col].Num
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		span := max - min
		if span == 0 {
			span = 1
		}
		return func(v engine.Value) float64 { return lo + (v.Num-min)/span*(hi-lo) }
	}
	rank := map[string]int{}
	for _, row := range res.Rows {
		t := row[col].Text()
		if _, ok := rank[t]; !ok {
			rank[t] = len(rank)
		}
	}
	n := float64(len(rank))
	if n <= 1 {
		n = 2
	}
	return func(v engine.Value) float64 { return lo + float64(rank[v.Text()])/(n-1)*(hi-lo) }
}

func hashIdx(s string, mod int) int {
	h := 0
	for _, c := range s {
		h = (h*31 + int(c)) % 1_000_003
	}
	return h % mod
}
