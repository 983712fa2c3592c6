package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile; with fewer, the percentile is an accident of one or two
// slow samples and the run is too short to report it.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("median of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// tailPercentile returns the nearest-rank p-quantile (0 < p < 1) of xs,
// refusing when fewer than minTail samples lie strictly beyond its rank.
// For p = 0.99 that needs at least 1000 samples.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0,1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d (run longer)",
			100*p, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// segmentedTail splits latencies, in the order the batches completed,
// into as many consecutive segments as leave each one enough samples
// for a p-quantile with minTail beyond it, and returns the median of
// the segments' quantiles along with each of them. A burst of host
// contention inflates the tail of the segment it falls in, not the
// reported value; a run too short for two segments reports the plain
// quantile of all its samples.
func segmentedTail(xs []float64, p float64) (float64, []float64, error) {
	if _, err := tailPercentile(xs, p); err != nil {
		return 0, nil, err
	}
	need := int(math.Ceil(float64(minTail) / (1 - p)))
	k := len(xs) / need
	var segs []float64
	for i := 0; i < k; i++ {
		v, err := tailPercentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], p)
		if err != nil {
			return 0, nil, err
		}
		segs = append(segs, v)
	}
	v, err := median(segs)
	return v, segs, err
}

// statWindow is the length of the windows serve throughput and median
// latency are medians over.
const statWindow = time.Second

// batchSample is one served batch: when it completed, counted from the
// start of the serve phase, its latency, and how many of its programs
// were selected and verified.
type batchSample struct {
	done     time.Duration
	ms       float64
	selected int
}

// serveStats computes a serve phase's throughput and latency from its
// batches in completion order. Throughput and median latency are
// medians over the phase's whole windows of length w (a partial last
// window is left out): selected programs per second of each window,
// and each window's median batch latency. The p99 is segmentedTail's.
// A few seconds of host contention then move the slowest windows and
// segments, not the reported values.
func serveStats(samples []batchSample, phase, w time.Duration) (perSec, p50, p99 float64, err error) {
	k := int(phase / w)
	if k < 1 {
		return 0, 0, 0, fmt.Errorf("serve phase of %v is shorter than one %v window", phase, w)
	}
	selected := make([]float64, k)
	lat := make([][]float64, k)
	for _, b := range samples {
		if j := int(b.done / w); j < k {
			selected[j] += float64(b.selected)
			lat[j] = append(lat[j], b.ms)
		}
	}
	var rates, medians []float64
	for j := range selected {
		rates = append(rates, selected[j]/w.Seconds())
		if len(lat[j]) > 0 {
			v, _ := median(lat[j])
			medians = append(medians, v)
		}
	}
	perSec, _ = median(rates)
	if p50, err = median(medians); err != nil {
		return 0, 0, 0, err
	}
	if p99, _, err = segmentedTail(latencies(samples), 0.99); err != nil {
		return 0, 0, 0, err
	}
	return perSec, p50, p99, nil
}

// latencies returns the batches' latencies in their order.
func latencies(samples []batchSample) []float64 {
	out := make([]float64, len(samples))
	for i, b := range samples {
		out[i] = b.ms
	}
	return out
}

// geomean is the geometric mean of strictly positive ratios.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of no ratios")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("geometric mean of non-positive ratio %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// fallbackRe matches the selector's uncovered-root reason. A root with a
// destination renders as "%5:s32 = G_SMIN %3 %4"; a store has none and
// renders its memory width as "G_STORE (32 bits) %1 %2".
var fallbackRe = regexp.MustCompile(`no rule for (?:%\d+:s(\d+) = )?(G_[A-Z0-9_]+)(?: [^(]*\((\d+) bits\))?`)

// parseFallback attributes a fallback reason to the opcode and width of
// the root no rule covered. ok is false when the reason has another
// shape (the caller counts it as unattributed, never drops it).
func parseFallback(reason string) (op string, width int, ok bool) {
	m := fallbackRe.FindStringSubmatch(reason)
	if m == nil {
		return "", 0, false
	}
	w := m[1]
	if w == "" {
		w = m[3]
	}
	if w == "" {
		return "", 0, false
	}
	width, err := strconv.Atoi(w)
	if err != nil {
		return "", 0, false
	}
	return m[2], width, true
}

// fallbackKey is the per-layer metric name of one (opcode, width).
func fallbackKey(op string, width int) string {
	return fmt.Sprintf("isel.fallbacks.%s.%d", op, width)
}

// stageTimes accumulates named per-program stage times in a fixed
// order, so the reported stages and their sum always agree.
type stageTimes struct {
	names []string
	ns    map[string]float64
}

func newStageTimes(names ...string) *stageTimes {
	return &stageTimes{names: names, ns: map[string]float64{}}
}

func (s *stageTimes) add(name string, ns float64) {
	if !s.has(name) {
		panic("perfbench: unknown stage " + name)
	}
	s.ns[name] += ns
}

func (s *stageTimes) has(name string) bool {
	for _, n := range s.names {
		if n == name {
			return true
		}
	}
	return false
}

// perProgramUS returns each stage's mean time per program in µs.
func (s *stageTimes) perProgramUS(programs int) map[string]float64 {
	out := map[string]float64{}
	for _, n := range s.names {
		out[n] = s.ns[n] / 1e3 / float64(programs)
	}
	return out
}

// residual is what a client-seen per-program latency leaves after the
// measured stages: decode, acquisition, middleware, transport. By
// definition the stages plus the residual add up to the latency.
func residual(latencyUS float64, stagesUS map[string]float64) float64 {
	r := latencyUS
	for _, v := range stagesUS {
		r -= v
	}
	return r
}
