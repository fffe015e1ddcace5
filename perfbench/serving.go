package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/dcf"
	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleetserve"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Serving traffic. The open-loop rates are fixed, not measured per run, so
// every run and every commit offers the same load. On a 2-vCPU Xeon the
// closed loop of serveCallers callers reaches about 50k req/s on serve-mlp
// and 29k on fleet-predict; the open-loop rates are about a tenth of that.
// Nearer to capacity, each request's wait depends on whether it meets a
// batch in flight, and on that shared host the p50 and p90 of a run then
// swung by more than the 25% a regression bound may span. A request
// answered correctly within the SLO limit counts toward predict_slo_frac; a
// refused, failed or wrong one never does.
const (
	servePoolSize = 256 // distinct seeded requests of 1–4 rows
	serveMaxRows  = 4
	serveCallers  = 8 // closed-loop callers, each waiting for its reply
	serveRate     = 6000
	serveSLO      = 5 * time.Millisecond
	fleetRate     = 2500
	fleetSLO      = 10 * time.Millisecond
)

// batchPolicy is the batcher policy of both serving workloads.
var batchPolicy = serve.Options{MaxBatchSize: 32, MaxQueueDelay: time.Millisecond, MaxInFlight: 2}

// corrupter spoils a set number of outputs before they are checked. The
// benchmark's tests use it to show that a wrong output is caught.
type corrupter struct{ n atomic.Int32 }

// spoil returns t, or a changed copy of it while spoils remain.
func (c *corrupter) spoil(t *tensor.Tensor) *tensor.Tensor {
	if t == nil || c.n.Add(-1) < 0 {
		return t
	}
	t = t.Clone()
	t.F[0]++
	return t
}

// mlpPool is the serving workloads' seeded request mix and its expected
// outputs.
type mlpPool struct {
	inputs []*tensor.Tensor
	want   []*tensor.Tensor
	order  []int // request i sends inputs[order[i%len(order)]]
	bad    corrupter
}

// newMLPPool draws the request mix and computes each request's expected
// output with an unbatched Callable.Call of a separately built MLP.
func newMLPPool(ctx context.Context, seed uint64) (*mlpPool, error) {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	p := &mlpPool{}
	for i := 0; i < servePoolSize; i++ {
		p.inputs = append(p.inputs, normal(r, 1+r.IntN(serveMaxRows), mlpWidth))
	}
	p.order = make([]int, 4096)
	for i := range p.order {
		p.order[i] = r.IntN(servePoolSize)
	}
	g := dcf.NewGraph()
	y := buildMLP(g)
	call, err := dcf.NewSession(g).MakeCallable(dcf.CallableSpec{Feeds: []string{"x"}, Fetches: []dcf.Tensor{y}})
	if err != nil {
		return nil, err
	}
	for _, in := range p.inputs {
		out, err := call.Call(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		p.want = append(p.want, out[0])
	}
	return p, nil
}

func (p *mlpPool) pick(i int) int { return p.order[i%len(p.order)] }

// check compares the outputs of request k (a pool index) with the oracle.
func (p *mlpPool) check(k int, outs []*tensor.Tensor) error {
	if len(outs) != 1 {
		return fmt.Errorf("%d outputs, want 1", len(outs))
	}
	return sameBits(p.bad.spoil(outs[0]), p.want[k])
}

// predictFunc sends one request; info is nil when the layer reports none.
type predictFunc func(ctx context.Context, sp *spans, id int64, x *tensor.Tensor) ([]*tensor.Tensor, *serve.ReqInfo, error)

// loadObs is what one load stretch observed.
type loadObs struct {
	tally
	okLat   []time.Duration // open loop: latency of each correct answer
	hist    *latHist        // closed loop: latencies of the correct answers
	late    []time.Duration // open loop: how late each send was
	infos   []serve.ReqInfo // traced open loop: batcher detail of correct answers
	doTimes []time.Duration // call durations, paired with infos
	wall    time.Duration
}

// classify checks the outputs of request k (a pool index) against the
// oracle. A refusal is ErrQueueFull from the batcher or ErrUnavailable from
// the router; any other error is a failure.
func classify(p *mlpPool, k int, outs []*tensor.Tensor, err error) (outcome, error) {
	switch {
	case err == nil:
		if cerr := p.check(k, outs); cerr != nil {
			return wrongOut, fmt.Errorf("wrong output: %w", cerr)
		}
		return answered, nil
	case errors.Is(err, serve.ErrQueueFull) || errors.Is(err, fleetserve.ErrUnavailable):
		return refusedOut, nil
	default:
		return erred, err
	}
}

// sent is one open-loop request's record, written by its own goroutine.
type sent struct {
	oc        outcome
	err       error
	lat, call time.Duration
	info      *serve.ReqInfo
}

// openLoop sends requests on a fixed schedule from one generator goroutine,
// whatever the replies do: request i is due at start + i/rate. Each
// request's latency runs from its due time, so a stall also charges the
// requests scheduled behind it, and the generator's own lateness is kept.
// Batcher detail is kept only in traced runs (sp non-nil), so an untraced
// run holds no more than two durations per request.
func openLoop(ctx context.Context, rate float64, d time.Duration, p *mlpPool, predict predictFunc, sp *spans) *loadObs {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(d / interval)
	obs := &loadObs{late: make([]time.Duration, n), okLat: make([]time.Duration, 0, n)}
	recs := make([]sent, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		obs.late[i] = time.Since(due)
		wg.Add(1)
		go func(i, k int, due time.Time) {
			defer wg.Done()
			id := sp.id()
			s := time.Now()
			outs, info, err := predict(ctx, sp, id, p.inputs[k])
			end := time.Now()
			oc, err := classify(p, k, outs, err)
			if sp == nil {
				info = nil
			}
			recs[i] = sent{oc: oc, err: err, lat: end.Sub(due), call: end.Sub(s), info: info}
		}(i, p.pick(i), due)
	}
	wg.Wait()
	obs.wall = time.Since(start)
	for _, r := range recs {
		obs.add(r.oc, r.err)
		if r.oc != answered {
			continue
		}
		obs.okLat = append(obs.okLat, r.lat)
		if r.info != nil {
			obs.infos = append(obs.infos, *r.info)
			obs.doTimes = append(obs.doTimes, r.call)
		}
	}
	return obs
}

// closedLoop runs callers that each send their next request when the last
// one is answered, until d has passed, and times each correct answer. first
// offsets each caller's place in the request mix, so successive windows send
// different requests.
func closedLoop(ctx context.Context, callers, first int, d time.Duration, p *mlpPool, predict predictFunc, sp *spans) *loadObs {
	obs := &loadObs{hist: &latHist{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine tally
			var lat latHist
			for i := first + c*7919; ; i++ {
				s := time.Now()
				if !s.Before(deadline) {
					break
				}
				k := p.pick(i)
				id := sp.id()
				outs, _, err := predict(ctx, sp, id, p.inputs[k])
				oc, err := classify(p, k, outs, err)
				if oc == answered {
					lat.record(time.Since(s))
				}
				mine.add(oc, err)
			}
			mu.Lock()
			obs.merge(&mine)
			obs.hist.merge(&lat)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	obs.wall = time.Since(start)
	return obs
}

// servingWindows cuts a serving phase of length d into open-then-closed
// windows of about 1.5 s: a third open loop, two thirds closed loop, which
// yields the latencies behind p50_ms and tail_ms. It returns the number of
// windows and the length of each stretch.
func servingWindows(d time.Duration) (n int, open, closed time.Duration) {
	n = max(1, int(d/(1500*time.Millisecond)))
	win := d / time.Duration(n)
	return n, win / 3, win - win/3
}

// serveFixture is serve-mlp: a serve.Batcher whose CallFunc runs a
// dcf.Callable of the MLP.
type serveFixture struct {
	seed uint64
	call *dcf.Callable
	b    *serve.Batcher
	pool *mlpPool

	sp     atomic.Pointer[spans]
	execMu sync.Mutex
	execIv []interval // traced CallFunc calls since the last reset
}

func setupServe(ctx context.Context, seed uint64) (fixture, error) {
	g := dcf.NewGraph()
	y := buildMLP(g)
	call, err := dcf.NewSession(g).MakeCallable(dcf.CallableSpec{Feeds: []string{"x"}, Fetches: []dcf.Tensor{y}})
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{seed: seed, call: call}
	fx.b = serve.New(fx.callFunc, batchPolicy)
	for rows := 1; rows <= serveMaxRows; rows++ {
		if _, err := fx.b.Do(ctx, tensor.Zeros(rows, mlpWidth)); err != nil {
			fx.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return fx, nil
}

// callFunc is the batcher's CallFunc: one Callable.Call per batch. In a
// traced run it is recorded as a child span and timed for
// serve.exec_busy_frac.
func (fx *serveFixture) callFunc(ctx context.Context, args []*tensor.Tensor) ([]*tensor.Tensor, error) {
	sp := fx.sp.Load()
	id := sp.id()
	start := time.Now()
	outs, err := fx.call.Call(ctx, args...)
	if sp == nil {
		return outs, err
	}
	end := time.Now()
	sp.record("callfunc", "Callable.Call", "batch", id, start, end)
	fx.execMu.Lock()
	fx.execIv = append(fx.execIv, interval{start, end})
	fx.execMu.Unlock()
	return outs, err
}

func (fx *serveFixture) predict(ctx context.Context, sp *spans, id int64, x *tensor.Tensor) ([]*tensor.Tensor, *serve.ReqInfo, error) {
	start := time.Now()
	outs, info, err := fx.b.DoDetailed(ctx, x)
	sp.record("batcher", "Batcher.Do", "req", id, start, time.Now())
	return outs, &info, err
}

func (fx *serveFixture) prepare(ctx context.Context) error {
	p, err := newMLPPool(ctx, fx.seed)
	fx.pool = p
	return err
}

func (fx *serveFixture) takeExec() []interval {
	fx.execMu.Lock()
	defer fx.execMu.Unlock()
	iv := fx.execIv
	fx.execIv = nil
	return iv
}

func (fx *serveFixture) measure(ctx context.Context, d time.Duration, sp *spans) (*phase, error) {
	fx.sp.Store(sp)
	defer fx.sp.Store(nil)
	fx.takeExec()
	nWin, openD, closedD := servingWindows(d)
	ph := startPhase()
	so := &serveObs{}
	var qd, ex, self []time.Duration
	var rows, batches int64
	var busy, closedWall time.Duration
	var openAttempted, openRefused int64
	for i := 0; i < nWin; i++ {
		open := openLoop(ctx, serveRate, openD, fx.pool, fx.predict, sp)
		fx.takeExec()
		s0 := fx.b.Snapshot()
		closed := closedLoop(ctx, serveCallers, i*serveCallers*7919, closedD, fx.pool, fx.predict, sp)
		s1 := fx.b.Snapshot()
		busy += busyTime(fx.takeExec())
		closedWall += closed.wall
		rows += s1.Rows - s0.Rows
		batches += s1.Batches - s0.Batches
		openAttempted += open.attempted
		openRefused += open.refused
		for j, in := range open.infos {
			qd = append(qd, in.QueueDelay)
			ex = append(ex, in.ExecLatency)
			self = append(self, open.doTimes[j]-in.QueueDelay-in.ExecLatency)
		}
		ph.addServing(open, closed, serveRate, serveSLO)
	}
	ph.finish()
	so.queueMs, so.execMs, so.selfMs = sortedMs(qd), sortedMs(ex), sortedMs(self)
	if batches > 0 {
		so.batchRowsMean = float64(rows) / float64(batches)
	}
	so.execBusyFrac = busy.Seconds() / closedWall.Seconds()
	so.rejectedFrac = frac(openRefused, openAttempted)
	ph.serve = so
	return ph, nil
}

func (fx *serveFixture) close() { fx.b.Close() }

// serveObs is the batcher-layer view of a serve-mlp phase: per-request
// detail from the traced open-loop stretches, batch occupancy and busy
// time from the closed-loop stretches.
type serveObs struct {
	queueMs, execMs, selfMs []float64 // per request, sorted
	batchRowsMean           float64
	execBusyFrac            float64
	rejectedFrac            float64
}

// interval is one busy period.
type interval struct{ start, end time.Time }

// busyTime is the length of the union of ivs.
func busyTime(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	if len(ivs) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// fleetFixture is fleet-predict: a fleetserve.Router over two replicas, each
// one cluster.Worker daemon on loopback serving the MLP.
type fleetFixture struct {
	seed    uint64
	daemons []*cluster.Worker
	router  *fleetserve.Router
	pool    *mlpPool
}

// fleetReplicas is the replica count of fleet-predict.
const fleetReplicas = 2

func setupFleet(ctx context.Context, seed uint64) (fixture, error) {
	fx := &fleetFixture{seed: seed}
	groups := make([][]string, fleetReplicas)
	for i := range groups {
		d, err := cluster.NewWorker(fmt.Sprintf("fr%d", i), "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.daemons = append(fx.daemons, d)
		groups[i] = []string{d.Addr()}
	}
	cfg := fleetserve.Config{
		Build: func(workers []string) (*core.Builder, []graph.Output, error) {
			g := dcf.NewGraph()
			var y dcf.Tensor
			g.WithDevice(workers[0]+"/cpu", func() { y = buildMLP(g) })
			return g.Builder(), []graph.Output{y.Output()}, g.Err()
		},
		Feeds:  []string{"x"},
		Warmup: []*tensor.Tensor{tensor.Zeros(1, mlpWidth)},
	}
	r, err := fleetserve.New(ctx, cfg, fleetserve.Options{
		BreakerBackoff: backoff.Exp{Base: 100 * time.Millisecond, Max: time.Second},
		StepTimeout:    2 * time.Second,
		Batch:          batchPolicy,
	}, groups...)
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.router = r
	return fx, nil
}

func (fx *fleetFixture) predict(ctx context.Context, sp *spans, id int64, x *tensor.Tensor) ([]*tensor.Tensor, *serve.ReqInfo, error) {
	start := time.Now()
	outs, err := fx.router.Predict(ctx, x)
	sp.record("router", "Router.Predict", "req", id, start, time.Now())
	return outs, nil, err
}

func (fx *fleetFixture) prepare(ctx context.Context) error {
	p, err := newMLPPool(ctx, fx.seed)
	fx.pool = p
	return err
}

func (fx *fleetFixture) measure(ctx context.Context, d time.Duration, sp *spans) (*phase, error) {
	s0 := fx.router.Snapshot()
	nWin, openD, closedD := servingWindows(d)
	ph := startPhase()
	for i := 0; i < nWin; i++ {
		open := openLoop(ctx, fleetRate, openD, fx.pool, fx.predict, sp)
		closed := closedLoop(ctx, serveCallers, i*serveCallers*7919, closedD, fx.pool, fx.predict, sp)
		ph.addServing(open, closed, fleetRate, fleetSLO)
	}
	ph.finish()
	s1 := fx.router.Snapshot()
	fo := &fleetObs{}
	if req := s1.Requests - s0.Requests; req > 0 {
		fo.attemptsPerReq = float64(req+s1.Retries-s0.Retries+s1.Hedges-s0.Hedges) / float64(req)
	}
	served := map[string]int64{}
	for _, r := range s0.Replicas {
		served[r.Name] -= r.Serve.BatchedRequests
	}
	for _, r := range s1.Replicas {
		served[r.Name] += r.Serve.BatchedRequests
	}
	lo, hi := int64(-1), int64(0)
	for _, n := range served {
		if lo < 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	if lo > 0 {
		fo.replicaSkew = float64(hi) / float64(lo)
	}
	ph.fleet = fo
	return ph, nil
}

func (fx *fleetFixture) close() {
	if fx.router != nil {
		fx.router.Close()
	}
	for _, d := range fx.daemons {
		d.Close()
	}
}

// fleetObs is the router-layer view of a fleet-predict phase.
type fleetObs struct {
	attemptsPerReq float64
	replicaSkew    float64
}
