package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the three cut points of v under the definition Python's
// statistics.quantiles(v, n=4) uses (the default "exclusive" method), which
// is the definition the driver judges run-to-run spread by. v needs at
// least two values and is not modified.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of v (mean of the two middle values for an
// even count); NaN for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of v; NaN for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to be an estimate rather than one outlier.
const minTailSamples = 10

// tailIndex returns the index into n sorted samples of the q-quantile by
// nearest rank, lowered as far as needed to keep minTailSamples samples
// beyond it: with n >= 1000 the 0.99 quantile is reported as asked, with
// fewer samples the highest percentile the sample supports.
func tailIndex(n int, q float64) int {
	if n == 0 {
		return -1
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if limit := n - 1 - minTailSamples; i > limit {
		i = limit
	}
	if i < 0 {
		i = 0
	}
	return i
}

// tail returns the tailIndex quantile of the latencies (ns). lat is sorted in
// place.
func tail(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return math.NaN()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[tailIndex(len(lat), q)])
}

// medianNs returns the median of the latencies (ns); lat is not modified.
func medianNs(lat []int64) float64 {
	f := make([]float64, len(lat))
	for i, x := range lat {
		f[i] = float64(x)
	}
	return median(f)
}

// opLog records the measured phase of a closed loop: for every completed
// operation its completion time (ns since the phase began) and its latency
// (reply received minus request issued, ns).
type opLog struct {
	done []int64
	lat  []int64
}

func newOpLog(capacity int) *opLog {
	return &opLog{done: make([]int64, 0, capacity), lat: make([]int64, 0, capacity)}
}

func (l *opLog) add(done, lat int64) {
	l.done = append(l.done, done)
	l.lat = append(l.lat, lat)
}

// windowed summarises an opLog over equal windows by completion time.
type windowed struct {
	windows int
	// qps is the window-median of operations completed per second.
	qps float64
	// tailNs is the window-median of the per-window q-quantile latency.
	tailNs float64
	// minOps is the smallest per-window operation count.
	minOps       int
	rates, tails []float64
}

// windowStats splits the phase [0, phase) into floor(phase/window) equal
// windows by completion time (at least one; they stretch to tile the phase
// exactly when it is not a multiple of window, and the one operation that
// completes after the deadline belongs to the last window) and returns the
// window-median throughput and the window-median of the per-window tail
// quantile q. A median over windows ignores a neighbour's burst that a mean
// over the phase would absorb.
func windowStats(l *opLog, phase, window time.Duration, q float64) windowed {
	n := int(phase / window)
	if n < 1 {
		n = 1
	}
	window = phase / time.Duration(n)
	buckets := make([][]int64, n)
	for i, d := range l.done {
		w := int(d / int64(window))
		if w >= n {
			w = n - 1
		}
		buckets[w] = append(buckets[w], l.lat[i])
	}
	out := windowed{windows: n, minOps: math.MaxInt}
	rates := make([]float64, 0, n)
	tails := make([]float64, 0, n)
	for _, b := range buckets {
		rates = append(rates, float64(len(b))/window.Seconds())
		if len(b) > 0 {
			tails = append(tails, tail(b, q))
		}
		if len(b) < out.minOps {
			out.minOps = len(b)
		}
	}
	out.qps = median(rates)
	out.tailNs = median(tails)
	return out
}
