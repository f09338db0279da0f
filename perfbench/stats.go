package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 from 200 samples rests on two values and says nothing.
const minBeyond = 10

// tailCandidates are the percentiles a timing may report next to its
// median, highest first, in permille.
var tailCandidates = []int{999, 990, 900}

// quantile returns the q-quantile (0 <= q <= 1) of an ascending sample by
// linear interpolation between closest ranks. An empty sample yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// qualifies reports whether n samples leave at least minBeyond of them
// beyond the percentile given in permille.
func qualifies(permille, n int) bool {
	return n*(1000-permille) >= minBeyond*1000
}

// tailPermille picks the highest reportable percentile for n samples, or
// 0 when even p90 lacks minBeyond samples beyond it.
func tailPermille(n int) int {
	for _, p := range tailCandidates {
		if qualifies(p, n) {
			return p
		}
	}
	return 0
}

// timing is a set of per-operation durations in seconds.
type timing struct {
	samples []float64
}

func (t *timing) add(d time.Duration) { t.samples = append(t.samples, d.Seconds()) }

func (t *timing) sorted() []float64 {
	s := append([]float64(nil), t.samples...)
	sort.Float64s(s)
	return s
}

// median is the sample median in seconds (NaN when empty).
func (t *timing) median() float64 { return quantile(t.sorted(), 0.5) }

// at returns the percentile given in permille, and whether it qualifies
// under the minBeyond rule.
func (t *timing) at(permille int) (float64, bool) {
	return quantile(t.sorted(), float64(permille)/1000), qualifies(permille, len(t.samples))
}

// describe renders "p50 <v> <unit>, p<tail> <v> <unit>, n=<count>" with
// durations scaled by scale (e.g. 1e3 for ms); the tail is the highest
// percentile that qualifies, omitted when none does.
func (t *timing) describe(scale float64, unit string) string {
	n := len(t.samples)
	if n == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50 %.4g %s", t.median()*scale, unit)
	if p := tailPermille(n); p > 0 {
		v, _ := t.at(p)
		s += fmt.Sprintf(", %s %.4g %s", permilleName(p), v*scale, unit)
	}
	return s + fmt.Sprintf(", n=%d", n)
}

// permilleName renders 990 as "p99", 999 as "p99.9".
func permilleName(p int) string {
	if p%10 == 0 {
		return fmt.Sprintf("p%d", p/10)
	}
	return fmt.Sprintf("p%g", float64(p)/10)
}

// medianOf returns the median of unsorted values (NaN when empty).
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// deriveSeed derives the i-th input seed of a stream from the workload
// seed (splitmix64 finalizer), so inputs depend on --seed alone.
func deriveSeed(seed uint64, stream byte, i int) uint64 {
	z := seed ^ uint64(stream)<<56 ^ uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
