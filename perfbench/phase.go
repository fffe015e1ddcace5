package main

import (
	"fmt"
	"strings"
	"time"
)

// window is one stretch of a phase. Each end-to-end figure is taken per
// window and the phase reports the median over its windows, so a burst of
// outside load that slows one window does not move the result.
type window struct {
	// work units completed (tokens, requests or loop iterations) over
	// workSec seconds.
	work, workSec float64
	// The latencies behind p50_ms and tail_ms: step times in lat, or the
	// closed-loop request latencies of a serving window in hist.
	lat  []time.Duration
	hist *latHist
	// heapMB is the peak live heap during the window.
	heapMB float64
}

// count is the number of latencies in the window.
func (w window) count() int {
	if w.hist != nil {
		return int(w.hist.n)
	}
	return len(w.lat)
}

// quantileMs is the window's p-th latency percentile in ms.
func (w window) quantileMs(p float64) float64 {
	if w.hist != nil {
		return w.hist.quantileMs(p)
	}
	return quantile(sortedMs(w.lat), p)
}

// phase is what one measured phase of a workload observed.
type phase struct {
	t tally

	windows []window

	// Open-loop phases: the latencies of the correct answers, generator
	// lateness and the SLO sample, in histograms so that the benchmark's
	// own bookkeeping does not grow the live heap over a run.
	openLat      latHist
	late         latHist
	sloIn        int
	sloAttempted int
	slo          time.Duration
	offered      float64 // open-loop requests per second

	wall   time.Duration
	heapMB float64
	rt     rtDelta
	c0, c1 counters

	lstm  *lstmObs
	serve *serveObs
	fleet *fleetObs
	dist  *distObs

	heap *heapSampler
	r0   rtSample
	t0   time.Time
}

// startPhase takes the readings a phase is measured against.
func startPhase() *phase {
	ph := &phase{c0: readCounters(), r0: readRuntime(), t0: time.Now()}
	ph.heap = startHeapSampler()
	return ph
}

// addWindow closes a window.
func (ph *phase) addWindow(w window) {
	w.heapMB = ph.heap.take()
	ph.windows = append(ph.windows, w)
}

// finish takes the closing readings. live_heap_peak_mb is the median over
// windows of each window's peak, so one unlucky garbage collection does
// not decide it.
func (ph *phase) finish() {
	ph.heap.close()
	var peaks []float64
	for _, w := range ph.windows {
		peaks = append(peaks, w.heapMB)
	}
	ph.heapMB = median(peaks)
	ph.wall = time.Since(ph.t0)
	ph.rt = runtimeDelta(ph.r0, readRuntime())
	ph.c1 = readCounters()
}

// addServing adds one window of a serving workload: an open-loop stretch
// (latency at a fixed rate, SLO) and the closed-loop stretch after it
// (capacity, and the latencies behind p50_ms and tail_ms). A request of the
// open loop is timed from its due time, so a stall of the shared host's
// vCPUs charges every request scheduled behind it: at tens of microseconds
// per request, a run's open-loop p90 on a 2-vCPU VM swung from 0.15 to 6
// ms with the host's load. The closed loop charges a stall only to the
// requests in flight; in the same runs its p90 stayed within 0.15-0.24 ms.
func (ph *phase) addServing(open, closed *loadObs, rate float64, slo time.Duration) {
	ph.t.merge(&open.tally)
	ph.t.merge(&closed.tally)
	ph.addWindow(window{work: float64(closed.ok), workSec: closed.wall.Seconds(), hist: closed.hist})
	for _, d := range open.okLat {
		ph.openLat.record(d)
	}
	for _, d := range open.late {
		ph.late.record(d)
	}
	ph.sloIn += within(open.okLat, slo)
	ph.sloAttempted += int(open.attempted)
	ph.slo, ph.offered = slo, rate
}

// sloFrac is predict_slo_frac over every open-loop request of the phase:
// the share of attempted requests answered correctly within the limit. An
// error, a refusal or a wrong answer counts as a miss.
func (ph *phase) sloFrac() float64 {
	return frac(int64(ph.sloIn), int64(ph.sloAttempted))
}

// rate is the median over windows of the work rate per second.
func (ph *phase) rate() float64 {
	var rs []float64
	for _, w := range ph.windows {
		if w.workSec > 0 {
			rs = append(rs, w.work/w.workSec)
		}
	}
	return median(rs)
}

// tailLimit is the percentile of tail_ms. On a shared 2-vCPU host a
// stall of a few milliseconds lands in a one-second window's p99 often
// enough that the p99 of a run swung by more than any regression bound can
// span; the p90 held steady. The p99 is printed beside it.
const tailLimit = 90

// latency returns the medians over windows of p50 and of the tail_ms
// percentile, in ms, that percentile (lower than tailLimit only if a window
// is too short to support it), and the number of latencies.
func (ph *phase) latency() (p50, tail, tailP float64, n int) {
	minN := -1
	for _, w := range ph.windows {
		n += w.count()
		if minN < 0 || w.count() < minN {
			minN = w.count()
		}
	}
	tailP = tailPercentile(max(minN, 0), tailLimit)
	var p50s, tails []float64
	for _, w := range ph.windows {
		p50s = append(p50s, w.quantileMs(50))
		tails = append(tails, w.quantileMs(tailP))
	}
	return median(p50s), median(tails), tailP, n
}

// pooledTail is the highest percentile up to p99 that the whole phase's
// latencies support, and its value in ms.
func (ph *phase) pooledTail() (p, ms float64) {
	var all []time.Duration
	var pooled latHist
	for _, w := range ph.windows {
		all = append(all, w.lat...)
		if w.hist != nil {
			pooled.merge(w.hist)
		}
	}
	if pooled.n > 0 {
		return pooled.tail(99)
	}
	sorted := sortedMs(all)
	p = tailPercentile(len(sorted), 99)
	return p, quantile(sorted, p)
}

func (ph *phase) failedFrac() float64 {
	if ph.t.attempted == 0 {
		return 0
	}
	return float64(ph.t.failed()) / float64(ph.t.attempted)
}

// report prints the workload's end-to-end metrics under the names the
// workload gives them, then the benchmark-wide names the JSON result uses.
func (ph *phase) report(rep *report, w workload) {
	p50, tail, tailP, n := ph.latency()
	rep.line("end-to-end (%d operations, %d failed: %d errors, %d refused, %d wrong; %d latency samples; "+
		"medians over %d windows, tail at p%g)",
		ph.t.attempted, ph.t.failed(), ph.t.errs, ph.t.refused, ph.t.wrong, n, len(ph.windows), tailP)
	if ph.t.firstErr != nil {
		rep.line("first failure: %v", ph.t.firstErr)
	}
	var wins []string
	for _, w := range ph.windows {
		wins = append(wins, fmt.Sprintf("%.4g/%.3g/%.3g", w.work/w.workSec, w.quantileMs(50), w.quantileMs(tailP)))
	}
	rep.line("windows (work_per_s/p50_ms/tail_ms): %s", strings.Join(wins, " "))
	pp, pooled := ph.pooledTail()
	switch w.name {
	case "lstm-train":
		rep.show("train_tokens_per_s", ph.rate(), "1/s")
		rep.show("train_step_p50_ms", p50, "ms")
		rep.show("train_step_p90_ms", tail, "ms")
		rep.show(fmt.Sprintf("train_step_p%g_ms", pp), pooled, "ms")
		rep.show("train_loss", ph.lstm.loss, "loss")
	case "serve-mlp", "fleet-predict":
		rep.line("  open loop at %g req/s, over the whole phase:", ph.offered)
		opp, optail := ph.openLat.tail(99)
		rep.show("predict_p50_ms", ph.openLat.quantileMs(50), "ms")
		rep.show("predict_p90_ms", ph.openLat.quantileMs(90), "ms")
		rep.show(fmt.Sprintf("predict_p%g_ms", opp), optail, "ms")
		rep.show("predict_slo_frac", ph.sloFrac(), "frac")
		rep.line("  (SLO limit %v)", ph.slo)
		rep.line("  closed loop of %d callers:", serveCallers)
		rep.show("predict_closed_p50_ms", p50, "ms")
		rep.show("predict_closed_p90_ms", tail, "ms")
		rep.show(fmt.Sprintf("predict_closed_p%g_ms", pp), pooled, "ms")
		rep.show("predict_max_rps", ph.rate(), "1/s")
	case "dist-loop":
		rep.show("dist_iters_per_s", ph.rate(), "1/s")
		rep.show("dist_step_p50_ms", p50, "ms")
		rep.show("dist_step_p90_ms", tail, "ms")
		rep.show(fmt.Sprintf("dist_step_p%g_ms", pp), pooled, "ms")
	}
	rep.show("failed_frac", ph.failedFrac(), "frac")
	rep.line("benchmark metrics:")
	rep.set("work_per_s", ph.rate(), "1/s")
	rep.set("p50_ms", p50, "ms")
	rep.set("tail_ms", tail, "ms")
	rep.set("live_heap_peak_mb", ph.heapMB, "MB")
}

// result builds the JSON result. A run is correct when no output was
// wrong; errors and refusals count as failed operations without making the
// outputs incorrect.
func (ph *phase) result(rep *report) *result {
	return &result{Correct: ph.t.wrong == 0, Attempted: ph.t.attempted, Failed: ph.t.failed(), Metrics: rep.metrics}
}
