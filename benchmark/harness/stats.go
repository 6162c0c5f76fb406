package harness

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantileMS returns the q-quantile (nearest rank) of sorted nanosecond
// samples, in milliseconds; 0 for no samples.
func quantileMS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e6
}

// medianMS is the median of unsorted nanosecond samples, in
// milliseconds.
func medianMS(ns []int64) float64 {
	s := append([]int64(nil), ns...)
	sortInt64(s)
	return quantileMS(s, 0.5)
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean drops the lowest and the highest fifth of the values and
// averages the rest. The open-loop phase's windows are summarised with
// it: the trimming keeps a hiccup or a slow second out, the averaging
// keeps the result steadier than a plain median of a dozen windows.
func trimmedMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := len(s) / 5
	return mean(s[k : len(s)-k])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so
// `mviewload aa` prints the spread the driver will compute.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string // metric name without labels
	labels string // raw label text inside the braces, "" when none
	value  float64
}

// parseProm reads the text exposition mviewd serves on /metrics.
// Histogram buckets are skipped: the harness only uses _sum and _count.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 && strings.HasSuffix(series, "}") {
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		out = append(out, promSample{name: name, labels: labels, value: v})
	}
	return out, sc.Err()
}

// promSnap is one scrape, queryable by name and label substring.
type promSnap []promSample

// sum adds every series of the metric whose label text contains all of
// the given fragments (e.g. `stage="fsync"`).
func (p promSnap) sum(name string, labelFrags ...string) float64 {
	var total float64
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for _, f := range labelFrags {
			if !strings.Contains(s.labels, f) {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work
// reports 0, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func usPer(d time.Duration, n int) float64 {
	return ratio(float64(d.Nanoseconds())/1e3, float64(n))
}

func nsPer(d time.Duration, n int) float64 {
	return ratio(float64(d.Nanoseconds()), float64(n))
}

// Summary describes one metric's values over repeated runs.
type Summary struct {
	Median, Q1, Q3 float64
	Spread         float64 // (Q3-Q1)/median: what the driver holds against the bound
	MaxDev         float64 // largest |value-median|/median
}

// Summarise computes the spread of a metric's values.
func Summarise(v []float64) Summary {
	s := Summary{Median: median(v)}
	s.Q1, s.Q3 = quartiles(v)
	s.Spread = ratio(s.Q3-s.Q1, s.Median)
	for _, x := range v {
		s.MaxDev = max(s.MaxDev, ratio(math.Abs(x-s.Median), s.Median))
	}
	return s
}
