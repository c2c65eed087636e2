// Package benchutil is the measurement harness shared by the
// figure-regeneration benchmarks (cmd/qaoabench and bench_test.go):
// repeated timing with medians, parameter-sweep series in the long
// format the paper's plots use, aligned/CSV table writers, and the
// Fig. 2 no-precompute baseline.
package benchutil

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// RecomputeEnergy is Fig. 2's no-precompute baseline, the stand-in for
// OpenQAOA-style simulators: it evolves |+⟩^n through the QAOA layers
// with the x mixer and returns ⟨Ĉ⟩, re-evaluating the cost polynomial
// term by term for every amplitude of every phase pass and of the
// expectation (O(|T|·2^n) per pass) instead of reading a cached
// diagonal. The mixer is Algorithm 2's serial sweep, so the result
// equals the Serial simulator's Expectation bit for bit: the two differ
// only in where f(x) comes from, which isolates what precomputation
// buys.
func RecomputeEnergy(n int, c poly.Compiled, gamma, beta []float64) float64 {
	v := statevec.NewUniform(n)
	for l := range gamma {
		for x := range v {
			sn, cs := math.Sincos(-gamma[l] * c.Eval(uint64(x)))
			v[x] *= complex(cs, sn)
		}
		statevec.ApplyUniformRX(v, beta[l])
	}
	var e float64
	for x, a := range v {
		e += c.Eval(uint64(x)) * (real(a)*real(a) + imag(a)*imag(a))
	}
	return e
}

// TimeRepeat runs fn reps times (reps ≥ 1) and returns the median and
// minimum wall time. The paper's Fig. 2 reports means over 5 runs;
// medians are sturdier on a shared host and we report both in
// EXPERIMENTS.md where it matters.
func TimeRepeat(reps int, fn func()) (median, min time.Duration) {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	return Median(times), Min(times)
}

// Median returns the median duration (lower middle for even counts).
func Median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// Min returns the smallest duration.
func Min(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	m := ds[0]
	for _, d := range ds[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

// Seconds renders a duration as seconds with three significant
// figures, matching the log-scale second axes of the paper's figures.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.3g", d.Seconds())
}

// Table is a simple column-aligned text table.
type Table struct {
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given headers.
func NewTable(headers ...string) *Table { return &Table{Headers: headers} }

// Add appends a row; short rows are padded.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Addf appends a row of formatted values.
func (t *Table) Addf(format string, cells ...interface{}) {
	parts := strings.Split(fmt.Sprintf(format, cells...), "\t")
	t.Add(parts...)
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// FprintCSV writes the table as CSV (no quoting; benchmark cells never
// contain commas).
func (t *Table) FprintCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Headers, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Point is one measurement in a sweep.
type Point struct {
	X float64
	Y float64
	// Note annotates special points ("capped", "modeled", …).
	Note string
}

// Series is one labeled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// AddNote appends an annotated point.
func (s *Series) AddNote(x, y float64, note string) {
	s.Points = append(s.Points, Point{X: x, Y: y, Note: note})
}

// FitExpRate fits y ≈ a·b^x by least squares on ln y and returns the
// base b together with the correlation of the log-linear fit. Points
// with y ≤ 0 are skipped. This is the scaling-rate extraction used by
// the time-to-solution analysis (growth rates like "2^{0.34n}" in the
// LABS scaling study).
func FitExpRate(xs, ys []float64) (base float64, r2 float64) {
	var sx, sy, sxx, sxy, syy, n float64
	for i := range xs {
		if i >= len(ys) || ys[i] <= 0 {
			continue
		}
		x, y := xs[i], math.Log(ys[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
		n++
	}
	if n < 2 {
		return 0, 0
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope := (n*sxy - sx*sy) / den
	// r² of the log-linear regression.
	varY := n*syy - sy*sy
	if varY > 0 {
		r := (n*sxy - sx*sy) / math.Sqrt(den*varY)
		r2 = r * r
	}
	return math.Exp(slope), r2
}

// FprintSeries writes curves in long format (series, x, y, note): the
// rows a plotting script would consume to regenerate the figure.
func FprintSeries(w io.Writer, xLabel, yLabel string, series []Series) {
	t := NewTable("series", xLabel, yLabel, "note")
	for _, s := range series {
		for _, p := range s.Points {
			t.Add(s.Name, fmt.Sprintf("%g", p.X), fmt.Sprintf("%.4g", p.Y), p.Note)
		}
	}
	t.Fprint(w)
}
