package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank method, together with the number of samples it was read
// from. An empty sample reads 0 with count 0.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)
}

// median returns the middle of xs (the mean of the middle two for an
// even count; 0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// maxWindows bounds how many windows windowedPct splits a sample into.
const maxWindows = 8

// windowedPct splits xs, in time order, into as many equal windows (up
// to maxWindows) as keep at least ten samples beyond the p-th percentile
// in each, and returns the median of the windows' percentiles with the
// total sample count. A burst of slow requests (a collector cycle, a
// noisy neighbour) then moves one window, not the figure.
func windowedPct(xs []float64, p float64) (float64, int) {
	need := int(math.Ceil(10/(1-p/100) - 1e-9))
	w := max(1, min(maxWindows, len(xs)/need))
	vals := make([]float64, w)
	for k := range vals {
		vals[k], _ = percentile(xs[k*len(xs)/w:(k+1)*len(xs)/w], p)
	}
	return median(vals), len(xs)
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported number: its name, unit, value and the number
// of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// metricSet collects metrics in report order.
type metricSet []metric

func (m *metricSet) add(name, unit string, value float64, n int) {
	*m = append(*m, metric{Name: name, Unit: unit, Value: value, N: n})
}

// pct adds the p-th percentile of xs, scaled (e.g. ns to µs), with its
// sample count.
func (m *metricSet) pct(name, unit string, xs []float64, p, scale float64) {
	v, n := percentile(xs, p)
	m.add(name, unit, v*scale, n)
}

// win adds windowedPct of xs, scaled, with its sample count.
func (m *metricSet) win(name, unit string, xs []float64, p, scale float64) {
	v, n := windowedPct(xs, p)
	m.add(name, unit, v*scale, n)
}

// writeTable prints every metric with its unit and sample count.
func (m metricSet) writeTable(w io.Writer, title string) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples\t")
	for _, x := range m {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t\n", x.Name, x.Value, x.Unit, x.N)
	}
	_ = tw.Flush()
}

// result is the one-line JSON summary a run ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) writeJSON(w io.Writer, attempted, failed int) error {
	out := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]jsonMetric, len(m))}
	for _, x := range m {
		out.Metrics[x.Name] = jsonMetric{Value: x.Value, Unit: x.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
