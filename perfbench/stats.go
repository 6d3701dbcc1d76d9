package main

import (
	"math"
	"sort"

	"multikernel/internal/metrics"
)

// percentile returns the q-quantile (0 < q ≤ 1) of sorted by the nearest-rank
// method, or 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// tailPick is a tail percentile with the samples that lie beyond it.
type tailPick struct {
	value  float64
	pct    float64 // 99.9, 99 or 90; 100 when it fell back to the maximum
	beyond int
}

// tail returns the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, or the maximum when none has.
func tail(sorted []float64) tailPick {
	n := len(sorted)
	if n == 0 {
		return tailPick{}
	}
	for _, q := range []float64{0.999, 0.99, 0.9} {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= 10 {
			return tailPick{sorted[rank-1], q * 100, n - rank}
		}
	}
	return tailPick{sorted[n-1], 100, 0}
}

// cycles returns the ops' virtual latencies, sorted.
func cycles(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = float64(o.cycles)
	}
	sort.Float64s(out)
	return out
}

// window is the registry difference across the model window.
type window struct {
	from, to metrics.Snapshot
	ops      float64
}

func (w window) count(name string) float64 {
	return float64(w.to.Counters[name] - w.from.Counters[name])
}

// perOp is a counter's window difference divided by the window's ops.
func (w window) perOp(name string) float64 { return w.count(name) / w.ops }

// ratio divides two window differences, 0 when the divisor did not move.
func (w window) ratio(num, den string) float64 {
	if d := w.count(den); d > 0 {
		return w.count(num) / d
	}
	return 0
}

// histMean is a histogram's mean over the window, 0 when it saw nothing.
func (w window) histMean(name string) float64 {
	a, b := w.from.Histograms[name], w.to.Histograms[name]
	if b.N == a.N {
		return 0
	}
	return float64(b.Sum-a.Sum) / float64(b.N-a.N)
}
