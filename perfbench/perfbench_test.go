package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{0, 99, 0},
		{19, 99, 0},
		{20, 99, 50},
		{99, 99, 50},
		{100, 99, 90},
		{999, 99, 90},
		{1000, 99, 99},
		{10000, 99, 99},
		{10000, 99.99, 99.9},
		{100000, 99.99, 99.99},
		{1000, 90, 90},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
}

// A refused, failed or wrong request counts against the SLO.
func TestSLOAccounting(t *testing.T) {
	p := &mlpPool{want: []*tensor.Tensor{tensor.Zeros(1, 1)}}
	good := []*tensor.Tensor{tensor.Zeros(1, 1)}
	bad := []*tensor.Tensor{tensor.FromFloats([]float64{1}, 1, 1)}
	open := &loadObs{}
	for _, r := range []struct {
		outs []*tensor.Tensor
		err  error
		lat  time.Duration
	}{
		{good, nil, time.Millisecond},
		{good, nil, 20 * time.Millisecond},
		{nil, serve.ErrQueueFull, 0},
		{nil, errors.New("boom"), 0},
		{bad, nil, time.Millisecond},
	} {
		oc, err := classify(p, 0, r.outs, r.err)
		open.add(oc, err)
		if oc == answered {
			open.okLat = append(open.okLat, r.lat)
		}
	}
	if open.attempted != 5 || open.ok != 2 || open.refused != 1 || open.errs != 1 || open.wrong != 1 {
		t.Fatalf("classify: %+v", open)
	}
	ph := startPhase()
	ph.addServing(open, &loadObs{}, 1, 5*time.Millisecond)
	ph.finish()
	if got := ph.sloFrac(); got != 0.2 {
		t.Errorf("predict_slo_frac = %g, want 0.2 (1 of 5 within the limit)", got)
	}
	if got := ph.failedFrac(); got != 0.6 {
		t.Errorf("failed_frac = %g, want 0.6", got)
	}
	failures := &loadObs{}
	failures.add(erred, errors.New("boom"))
	failures.add(refusedOut, nil)
	ph = startPhase()
	ph.addServing(failures, &loadObs{}, 1, time.Second)
	ph.finish()
	if got := ph.sloFrac(); got != 0 {
		t.Errorf("predict_slo_frac with only failures = %g, want 0", got)
	}
}

func TestHistQuantile(t *testing.T) {
	a := counters{hists: map[string]map[float64]int64{"h": {3: 5, math.Inf(1): 5}}}
	// Between the readings: 10 observations in [4,7], 10 in [8,15].
	b := counters{hists: map[string]map[float64]int64{"h": {3: 5, 7: 15, 15: 25, math.Inf(1): 25}}}
	if got := b.histQuantile(a, "h", 50); got < 4 || got > 8 {
		t.Errorf("p50 = %g, want within [4,8]", got)
	}
	if got := b.histQuantile(a, "h", 99); got < 8 || got > 16 {
		t.Errorf("p99 = %g, want within [8,16]", got)
	}
	if got := a.histQuantile(a, "h", 50); got != 0 {
		t.Errorf("p50 of no observations = %g, want 0", got)
	}
}

func TestLatHist(t *testing.T) {
	for _, ns := range []int64{0, 1, histSub - 1, histSub, histSub + 1, 2*histSub - 1, 2 * histSub, 1000, 123456789, 1 << 40} {
		lo, width := histBounds(histBucket(ns))
		if float64(ns) < lo || float64(ns) >= lo+width || width > max(1, float64(ns)/histSub) {
			t.Errorf("%d ns in bucket [%g, %g+%g)", ns, lo, lo, width)
		}
	}
	var h latHist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for p, want := range map[float64]float64{50: 0.5, 90: 0.9, 99: 0.99} {
		if got := h.quantileMs(p); math.Abs(got-want) > want/histSub {
			t.Errorf("p%g = %g ms, want %g ms within 1/%d", p, got, want, histSub)
		}
	}
	var sum latHist
	sum.merge(&h)
	sum.merge(&h)
	if got := sum.quantileMs(50); sum.n != 2000 || math.Abs(got-0.5) > 0.5/histSub {
		t.Errorf("merged twice: n %d, p50 %g ms; want 2000, 0.5 ms within 1/%d", sum.n, got, histSub)
	}
	if got := (&latHist{}).quantileMs(50); got != 0 {
		t.Errorf("p50 of no observations = %g, want 0", got)
	}
}

func TestBusyTime(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ivs := []interval{{at(5), at(8)}, {at(0), at(2)}, {at(1), at(3)}, {at(6), at(7)}}
	if got := busyTime(ivs); got != 6*time.Millisecond {
		t.Errorf("busyTime = %v, want 6ms", got)
	}
}

func TestIterSlope(t *testing.T) {
	var steps []distStep
	for trips := 1; trips <= 8; trips++ {
		steps = append(steps, distStep{trips, time.Duration(100+30*trips) * time.Microsecond})
	}
	if got := iterSlope(steps); got != 30*time.Microsecond {
		t.Errorf("iterSlope = %v, want 30µs", got)
	}
}

// smoke sets a workload up at tiny scale, spoils one output, and checks
// that exactly that output is counted as a failure.
func smoke(t *testing.T, setup func(context.Context, uint64) (fixture, error), spoil func(fixture)) *phase {
	t.Helper()
	ctx := context.Background()
	fx, err := setup(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	if err := fx.prepare(ctx); err != nil {
		t.Fatal(err)
	}
	spoil(fx)
	ph, err := fx.measure(ctx, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.t.attempted < 2 || ph.t.wrong != 1 || ph.t.errs != 0 || ph.t.refused != 0 {
		t.Fatalf("attempted %d, wrong %d, errors %d, refused %d (first failure: %v); want exactly the spoiled output wrong",
			ph.t.attempted, ph.t.wrong, ph.t.errs, ph.t.refused, ph.t.firstErr)
	}
	if ph.failedFrac() <= 0 {
		t.Fatalf("failed_frac = %g with a spoiled output", ph.failedFrac())
	}
	if _, _, _, n := ph.latency(); ph.rate() <= 0 || n == 0 {
		t.Fatalf("no work measured: rate %g, %d latencies", ph.rate(), n)
	}
	return ph
}

func TestSmokeServeMLP(t *testing.T) {
	ph := smoke(t, setupServe, func(fx fixture) { fx.(*serveFixture).pool.bad.n.Store(1) })
	if ph.serve == nil || ph.serve.batchRowsMean < 1 {
		t.Fatalf("batcher view missing: %+v", ph.serve)
	}
}

func TestSmokeFleetPredict(t *testing.T) {
	ph := smoke(t, setupFleet, func(fx fixture) { fx.(*fleetFixture).pool.bad.n.Store(1) })
	if ph.fleet == nil || ph.fleet.attemptsPerReq < 1 {
		t.Fatalf("router view missing: %+v", ph.fleet)
	}
}

func TestSmokeDistLoop(t *testing.T) {
	smoke(t, setupDist, func(fx fixture) { fx.(*distFixture).bad.n.Store(1) })
}

func TestSmokeLSTMTrain(t *testing.T) {
	smoke(t, setupLSTM, func(fx fixture) {
		l := fx.(*lstmFixture)
		l.lossSteps = 3
		l.bad.n.Store(1)
	})
}

// Two runs with one seed train to the same loss, bit for bit.
func TestLSTMLossRepeats(t *testing.T) {
	ctx := context.Background()
	var losses []float64
	for i := 0; i < 2; i++ {
		fx, err := setupLSTM(ctx, 5)
		if err != nil {
			t.Fatal(err)
		}
		l := fx.(*lstmFixture)
		l.lossSteps = 3
		if err := l.prepare(ctx); err != nil {
			t.Fatal(err)
		}
		ph, err := l.measure(ctx, time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ph.t.failed() != 0 {
			t.Fatalf("run %d: %d failed steps: %v", i, ph.t.failed(), ph.t.firstErr)
		}
		losses = append(losses, ph.lstm.loss)
	}
	if math.IsNaN(losses[0]) || math.Float64bits(losses[0]) != math.Float64bits(losses[1]) {
		t.Fatalf("train_loss %v then %v, want one finite value", losses[0], losses[1])
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// The untraced run prints exactly the end-to-end metrics BENCHMARK.json
// lists and the traced run exactly its per-layer metrics, with their units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not run", n)
		}
	}
	for _, w := range spec.Workloads {
		if fw, _ := findWorkload(w.Name); fw.why != w.Why {
			t.Errorf("workload %s: why %q, BENCHMARK.json says %q", w.Name, fw.why, w.Why)
		}
	}
	check := func(trace bool, want map[string]string) {
		t.Helper()
		cfg := config{workload: "serve-mlp", seed: 2, seconds: 0.4, trace: trace, spanDir: t.TempDir()}
		res, err := run(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace=%v: correct %v attempted %d failed %d", trace, res.Correct, res.Attempted, res.Failed)
		}
		got := map[string]string{}
		for k, m := range res.Metrics {
			got[k] = m.Unit
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace=%v: %s = %v", trace, k, m.Value)
			}
		}
		for k, u := range want {
			if got[k] != u {
				t.Errorf("trace=%v: metric %s has unit %q, want %q", trace, k, got[k], u)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("trace=%v: metric %s is not in BENCHMARK.json", trace, k)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	check(false, e2e)
	check(true, layers)
}
