package main

import (
	"bufio"
	"bytes"
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	repmetrics "repro/internal/metrics"
)

// tailPercentiles are the percentiles a tail may be reported at, lowest
// first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest of tailPercentiles that leaves at least
// ten of n samples beyond it, capped at limit, or 0 when even the median
// leaves fewer than ten.
func tailPercentile(n int, limit float64) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if p > limit {
			break
		}
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quantile returns the nearest-rank p-th percentile (0..100) of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedMs returns ds in milliseconds, sorted.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 50)
}

// latHist counts durations in log-linear buckets: one bucket per
// nanosecond below histSub ns, histSub buckets per power of two above, so no
// bucket is wider than 1/histSub of the values in it. It holds a window of
// latencies in a fixed 16 KB, where a slice of them would grow with the
// run and move the live heap the benchmark reports.
type latHist struct {
	counts [64 * histSub]uint32
	n      int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
)

// histBucket returns the bucket of ns nanoseconds.
func histBucket(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1 - histSubBits
	return (e+1)*histSub + int(ns>>e) - histSub
}

// histBounds returns the lowest value of bucket i and the bucket's width,
// in nanoseconds.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	return float64(int64(i%histSub+histSub) << e), float64(int64(1) << e)
}

func (h *latHist) record(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMs returns the nearest-rank p-th percentile in milliseconds,
// placed inside its bucket by the rank's position among the bucket's
// counts.
func (h *latHist) quantileMs(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(math.Ceil(p/100*float64(h.n)), 1), float64(h.n))
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return (lo + width*(rank-cum-0.5)/float64(c)) / 1e6
		}
		cum += float64(c)
	}
	return 0
}

// tail returns the highest percentile up to limit that the histogram's
// count supports, and its value in ms.
func (h *latHist) tail(limit float64) (p, ms float64) {
	p = tailPercentile(int(h.n), limit)
	return p, h.quantileMs(p)
}

// within counts the durations no longer than limit.
func within(ds []time.Duration, limit time.Duration) int {
	n := 0
	for _, d := range ds {
		if d <= limit {
			n++
		}
	}
	return n
}

// outcome is how one operation ended.
type outcome uint8

const (
	answered outcome = iota // correct answer
	wrongOut
	refusedOut
	erred
)

// tally counts operations by outcome and keeps the first failure for the
// log.
type tally struct {
	attempted, ok, errs, refused, wrong int64
	firstErr                            error
}

func (t *tally) add(oc outcome, err error) {
	t.attempted++
	switch oc {
	case answered:
		t.ok++
	case wrongOut:
		t.wrong++
	case refusedOut:
		t.refused++
	case erred:
		t.errs++
	}
	if err != nil && t.firstErr == nil {
		t.firstErr = err
	}
}

// merge adds o's counts to t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.wrong += o.wrong
	t.refused += o.refused
	t.errs += o.errs
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// failed counts errors, refusals and wrong outputs.
func (t *tally) failed() int64 { return t.errs + t.refused + t.wrong }

// rtSample is one reading of the Go runtime's metrics.
type rtSample struct {
	at       time.Time
	gcCPU    float64
	totalCPU float64
	allocs   uint64
	pauses   *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return rtSample{
		at:       time.Now(),
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		allocs:   s[2].Value.Uint64(),
		pauses:   s[3].Value.Float64Histogram(),
	}
}

// rtDelta summarizes the runtime between two samples.
type rtDelta struct {
	gcCPUFrac   float64
	pauseP99Us  float64
	allocMBPerS float64
}

func runtimeDelta(a, b rtSample) rtDelta {
	var d rtDelta
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	if wall := b.at.Sub(a.at).Seconds(); wall > 0 {
		d.allocMBPerS = float64(b.allocs-a.allocs) / 1e6 / wall
	}
	counts := make([]uint64, len(b.pauses.Counts))
	total := uint64(0)
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		rank := math.Ceil(0.99 * float64(total))
		cum := 0.0
		for i, c := range counts {
			if cum+float64(c) >= rank {
				// Bucket i spans Buckets[i]..Buckets[i+1]; interpolate the
				// rank's place inside it, as Prometheus does.
				lo, hi := b.pauses.Buckets[i], b.pauses.Buckets[i+1]
				if math.IsInf(hi, 1) {
					hi = lo
				}
				if math.IsInf(lo, -1) {
					lo = 0
				}
				d.pauseP99Us = (lo + (hi-lo)*(rank-cum)/float64(c)) * 1e6
				break
			}
			cum += float64(c)
		}
	}
	return d
}

// heapSampler tracks the peak of /gc/heap/live:bytes while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		h.mu.Lock()
		h.peak = max(h.peak, s[0].Value.Uint64())
		h.mu.Unlock()
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// take returns the peak in MB since the last take.
func (h *heapSampler) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / 1e6
}

// close stops the sampler.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// counters is a reading of the program's process-wide metrics registry:
// counters and gauges by name, histograms as cumulative bucket counts keyed
// by their upper bound.
type counters struct {
	vals  map[string]int64
	hists map[string]map[float64]int64
}

func readCounters() counters {
	var buf bytes.Buffer
	_ = repmetrics.Default().WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	c := counters{vals: map[string]int64{}, hists: map[string]map[float64]int64{}}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		if base, le, ok := strings.Cut(name, `_bucket{le="`); ok {
			le = strings.TrimSuffix(le, `"}`)
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					continue
				}
			}
			if c.hists[base] == nil {
				c.hists[base] = map[float64]int64{}
			}
			c.hists[base][bound] = v
			continue
		}
		c.vals[name] = v
	}
	return c
}

// delta returns b's counter minus a's.
func (b counters) delta(a counters, name string) int64 { return b.vals[name] - a.vals[name] }

// histQuantile estimates the p-th percentile of the observations histogram
// name received between readings a and b. The registry's buckets are
// powers of two; the estimate interpolates geometrically inside the bucket
// that holds the rank. Returns 0 when no observation arrived.
func (b counters) histQuantile(a counters, name string, p float64) float64 {
	hb, ha := b.hists[name], a.hists[name]
	bounds := make([]float64, 0, len(hb))
	for ub := range hb {
		bounds = append(bounds, ub)
	}
	sort.Float64s(bounds)
	// Cumulative counts are sparse: a bound missing from a reading holds
	// the cumulative count of the next lower bound present in it.
	cumAt := func(h map[float64]int64, ub float64) int64 {
		best, bestUB := int64(0), math.Inf(-1)
		for k, v := range h {
			if k <= ub && k > bestUB {
				best, bestUB = v, k
			}
		}
		return best
	}
	if len(bounds) == 0 {
		return 0
	}
	total := cumAt(hb, math.Inf(1)) - cumAt(ha, math.Inf(1))
	if total <= 0 {
		return 0
	}
	rank := math.Ceil(p / 100 * float64(total))
	prevCum, prevUB := 0.0, 0.0
	for _, ub := range bounds {
		cum := float64(cumAt(hb, ub) - cumAt(ha, ub))
		if cum >= rank {
			if math.IsInf(ub, 1) {
				return prevUB
			}
			lo := math.Max(1, (ub+1)/2)
			frac := 1.0
			if cum > prevCum {
				frac = (rank - prevCum) / (cum - prevCum)
			}
			return lo * math.Pow((ub+1)/lo, frac)
		}
		prevCum, prevUB = cum, ub
	}
	return prevUB
}
