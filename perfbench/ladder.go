package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"time"

	"repro/dcf"
	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/ops"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
)

// The traced run. It measures the workload twice for half of --seconds
// each: untraced, then recording spans around every public call. The
// difference in the workload's main rate is trace.overhead_frac. It then
// climbs the layer ladder, standalone rungs timed around one layer's public
// calls each:
//
//	L0 tensor.MatMul at the LSTM cell's and the MLP's shapes
//	L1 a serial Callable.Call of the MLP; one traced LSTM step at T=40
//	L2 the batcher, from serve-mlp traffic
//	L3 the wire codec on the dist-loop payload; a rendezvous round trip
//	L4 a zero-trip TCPCluster step; per-iteration hop time
//	L5 a serial one-row Router.Predict
//
// The difference between adjacent rungs places a cost on one layer. Layer
// metrics of serve, fleetserve and the cluster come from the workload's own
// traced phase when it exercises that layer, and otherwise from a short
// run of the workload that does (miniSeconds long).
const (
	miniSeconds = 1.0
	rungReps    = 5 // samples per rung; each rung reports their median
	lstmProbeT  = 40
	distProbeT  = 16
)

func tracedRun(ctx context.Context, cfg config, w workload, fx fixture, d time.Duration, rep *report) (*result, error) {
	untraced, err := fx.measure(ctx, d/2, nil)
	if err != nil {
		return nil, err
	}
	sp := newSpans()
	traced, err := fx.measure(ctx, d/2, sp)
	if err != nil {
		return nil, err
	}
	rep.line("untraced phase:")
	untraced.report(newReport(rep.w), w)
	rep.line("traced phase:")
	traced.report(newReport(rep.w), w)

	l := &ladder{ctx: ctx, seed: cfg.seed, rep: rep, sp: sp}
	defer l.close()
	// op is one operation of the workload, for tensor.pool_peak_mb.
	var op func() error
	switch f := fx.(type) {
	case *lstmFixture:
		l.lstm = f
		op = func() error {
			_, err := f.run(ctx, lstmInput(f.seed, 1<<20, lstmProbeT), nil, 0)
			return err
		}
	case *serveFixture:
		l.serve, l.servePh = f, traced
		op = func() error {
			_, err := f.b.Do(ctx, f.pool.inputs[0])
			return err
		}
	case *distFixture:
		l.dist, l.distPh = f, traced
		op = func() error {
			_, err := f.tc.RunCtx(ctx, distFeeds(f.inputs[0], distProbeT))
			return err
		}
	case *fleetFixture:
		l.fleet, l.fleetPh = f, traced
		op = func() error {
			_, err := f.router.Predict(ctx, f.pool.inputs[0])
			return err
		}
	}
	rep.line("per-layer metrics:")
	if err := l.climb(traced, op); err != nil {
		return nil, err
	}
	// The traced run's main metric against the untraced one: the share of
	// the work rate the spans cost.
	overhead := 0.0
	if r := untraced.rate(); r > 0 {
		overhead = 1 - traced.rate()/r
	}
	rep.set("trace.overhead_frac", overhead, "frac")

	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	offered, kept, written, err := sp.write(path)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.line("spans: %d recorded, %d kept, %d written to %s", offered, kept, written, path)

	res := &result{Correct: true, Metrics: rep.metrics}
	for _, ph := range append([]*phase{untraced, traced}, l.extra...) {
		res.Correct = res.Correct && ph.t.wrong == 0
		res.Attempted += ph.t.attempted
		res.Failed += ph.t.failed()
	}
	return res, nil
}

// ladder holds the fixtures the traced run measures layers with: the
// workload's own, and short-lived ones it sets up for the other layers.
type ladder struct {
	ctx  context.Context
	seed uint64
	rep  *report
	sp   *spans

	lstm    *lstmFixture
	serve   *serveFixture
	dist    *distFixture
	fleet   *fleetFixture
	servePh *phase
	distPh  *phase
	fleetPh *phase

	owned []fixture
	extra []*phase // phases of the short runs, for the failure count
}

func (l *ladder) close() {
	for _, fx := range l.owned {
		fx.close()
	}
}

// mini sets up a workload's fixture and measures it, traced, for
// miniSeconds.
func (l *ladder) mini(setup func(context.Context, uint64) (fixture, error)) (fixture, *phase, error) {
	fx, err := setup(l.ctx, l.seed)
	if err != nil {
		return nil, nil, err
	}
	l.owned = append(l.owned, fx)
	if err := fx.prepare(l.ctx); err != nil {
		return nil, nil, err
	}
	ph, err := fx.measure(l.ctx, time.Duration(miniSeconds*float64(time.Second)), l.sp)
	if err != nil {
		return nil, nil, err
	}
	l.extra = append(l.extra, ph)
	return fx, ph, nil
}

// climb prints every per-layer metric. own is the workload's traced phase
// and op one operation of the workload.
func (l *ladder) climb(own *phase, op func() error) error {
	rep := l.rep
	if l.lstm == nil {
		fx, err := setupLSTM(l.ctx, l.seed)
		if err != nil {
			return err
		}
		l.owned = append(l.owned, fx)
		l.lstm = fx.(*lstmFixture)
	}
	if l.serve == nil {
		fx, ph, err := l.mini(setupServe)
		if err != nil {
			return fmt.Errorf("serve-mlp layer run: %w", err)
		}
		l.serve, l.servePh = fx.(*serveFixture), ph
	}
	if l.dist == nil {
		fx, ph, err := l.mini(setupDist)
		if err != nil {
			return fmt.Errorf("dist-loop layer run: %w", err)
		}
		l.dist, l.distPh = fx.(*distFixture), ph
	}
	if l.fleet == nil {
		fx, ph, err := l.mini(setupFleet)
		if err != nil {
			return fmt.Errorf("fleet-predict layer run: %w", err)
		}
		l.fleet, l.fleetPh = fx.(*fleetFixture), ph
	}

	// tensor
	rep.set("tensor.matmul_gflops.lstm", matmulGflops([3]int{lstmBatch, lstmIn, 4 * lstmUnits}, [3]int{lstmBatch, lstmUnits, 4 * lstmUnits}), "GFLOP/s")
	rep.set("tensor.matmul_gflops.mlp", matmulGflops([3]int{32, mlpWidth, mlpWidth}), "GFLOP/s")
	hits, misses := own.c1.delta(own.c0, "tensor_pool_hits_total"), own.c1.delta(own.c0, "tensor_pool_misses_total")
	rep.set("tensor.pool_hit_frac", frac(hits, hits+misses), "frac")
	// The pool's live gauge keeps counting buffers the garbage collector
	// reclaims without a Recycle, so over a phase it only grows; its peak
	// is read around a single operation instead.
	tensor.ResetPoolWater()
	if err := op(); err != nil {
		return err
	}
	rep.set("tensor.pool_peak_mb", float64(tensor.PoolPeakBytes())/1e6, "MB")

	// exec
	call1, allocs, bytesPer, err := callCost(l.ctx, l.serve.call, 1)
	if err != nil {
		return err
	}
	call32, _, _, err := callCost(l.ctx, l.serve.call, 32)
	if err != nil {
		return err
	}
	rep.set("exec.call_us.rows1", call1, "us")
	rep.set("exec.call_us.rows32", call32, "us")
	rep.set("exec.allocs_per_call", allocs, "count")
	rep.set("exec.bytes_per_call", bytesPer, "B")
	steps := own.c1.delta(own.c0, "exec_steps_total")
	inline := own.c1.delta(own.c0, "exec_dispatch_inline_total")
	dispatched := inline + own.c1.delta(own.c0, "exec_dispatch_pool_total") + own.c1.delta(own.c0, "exec_dispatch_spawn_total")
	rep.set("exec.kernels_per_step", frac(own.c1.delta(own.c0, "exec_kernels_total"), steps), "count")
	rep.set("exec.inline_frac", frac(inline, dispatched), "frac")
	rep.set("exec.pool_steals_per_step", frac(own.c1.delta(own.c0, "exec_pool_steals_total"), steps), "count")
	lp, err := l.lstmProbe()
	if err != nil {
		return err
	}
	rep.set("exec.matmul_time_frac", lp.matmulFrac, "frac")
	rep.set("exec.kernel_busy_frac", lp.busyFrac, "frac")

	// dcf / autodiff
	rep.set("dcf.forward_ms.t40", lp.forwardMs, "ms")
	rep.set("autodiff.backward_ms.t40", lp.stepMs-lp.forwardMs, "ms")

	// serve
	so := l.servePh.serve
	rep.set("serve.queue_wait_p50_us", quantile(so.queueMs, 50)*1e3, "us")
	rep.set("serve.queue_wait_p99_us", quantile(so.queueMs, tailPercentile(len(so.queueMs), 99))*1e3, "us")
	rep.set("serve.exec_p50_us", quantile(so.execMs, 50)*1e3, "us")
	rep.set("serve.self_p50_us", quantile(so.selfMs, 50)*1e3, "us")
	rep.set("serve.batch_rows_mean", so.batchRowsMean, "rows")
	rep.set("serve.exec_busy_frac", so.execBusyFrac, "frac")
	rep.set("serve.rejected_frac", so.rejectedFrac, "frac")

	// cluster
	enc, dec, size, err := wireCost()
	if err != nil {
		return err
	}
	rep.set("cluster.wire_encode_us", enc, "us")
	rep.set("cluster.wire_decode_us", dec, "us")
	rep.set("cluster.wire_bytes", size, "B")
	stepSrc := l.distPh
	if l.fleetPh == own {
		stepSrc = own
	}
	rep.set("cluster.worker_step_p50_us", stepSrc.c1.histQuantile(stepSrc.c0, "cluster_step_duration_ns", 50)/1e3, "us")

	// rendezvous
	rtt, err := rendezvousRTT()
	if err != nil {
		return err
	}
	rep.set("rendezvous.rtt_us", rtt, "us")
	sends, err := l.dist.sendsPerStep(l.ctx, distProbeT)
	if err != nil {
		return err
	}
	sends0, err := l.dist.sendsPerStep(l.ctx, 0)
	if err != nil {
		return err
	}
	perIter := float64(sends-sends0) / distProbeT
	slope := iterSlope(l.distPh.dist.steps)
	rep.line("  (dist-loop: %.1f us per loop iteration over %d steps, %.2f transfers per iteration)",
		float64(slope)/1e3, len(l.distPh.dist.steps), perIter)
	rep.set("rendezvous.hop_us", float64(slope)/1e3/max(perIter, 1), "us")
	rep.set("rendezvous.msgs_per_step", float64(sends), "count")

	// distrib
	fixed, err := medianCallUs(func() error {
		_, err := l.dist.tc.RunCtx(l.ctx, distFeeds(l.dist.inputs[0], 0))
		return err
	}, 200)
	if err != nil {
		return err
	}
	rep.set("distrib.step_fixed_us", fixed, "us")
	local, err := localItersPerS(l.ctx, l.dist.inputs[0])
	if err != nil {
		return err
	}
	rep.set("distrib.local_iters_per_s", local, "1/s")

	// fleetserve
	one := tensor.Zeros(1, mlpWidth)
	idle, err := medianCallUs(func() error {
		_, err := l.fleet.router.Predict(l.ctx, one)
		return err
	}, 200)
	if err != nil {
		return err
	}
	rep.set("fleetserve.idle_predict_us", idle, "us")
	rep.set("fleetserve.attempts_per_req", l.fleetPh.fleet.attemptsPerReq, "count")
	rep.set("fleetserve.replica_skew", l.fleetPh.fleet.replicaSkew, "ratio")

	// Go runtime and the harness
	rep.set("go.gc_cpu_frac", own.rt.gcCPUFrac, "frac")
	rep.set("go.gc_pause_p99_us", own.rt.pauseP99Us, "us")
	rep.set("go.alloc_mb_per_s", own.rt.allocMBPerS, "MB/s")
	genSrc := l.servePh
	if own.late.n > 0 {
		genSrc = own
	}
	_, late := genSrc.late.tail(99)
	rep.set("gen.late_p99_ms", late, "ms")
	return nil
}

func frac(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// timeReps runs fn in batches of n calls until a batch takes at least
// 20ms, then takes rungReps batches and returns the median time per call.
func timeReps(fn func() error) (time.Duration, error) {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		if time.Since(start) >= 20*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for r := 0; r < rungReps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(per)), nil
}

// medianCallUs is the median latency of n serial calls of fn, in µs.
func medianCallUs(fn func() error, n int) (float64, error) {
	var us []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us), nil
}

// matmulGflops times one tensor.MatMul per [m,k,n] shape per call.
func matmulGflops(shapes ...[3]int) float64 {
	r := rand.New(rand.NewPCG(1, 2))
	type pair struct{ a, b *tensor.Tensor }
	var ps []pair
	flops := 0.0
	for _, s := range shapes {
		ps = append(ps, pair{normal(r, s[0], s[1]), normal(r, s[1], s[2])})
		flops += 2 * float64(s[0]*s[1]*s[2])
	}
	per, err := timeReps(func() error {
		for _, p := range ps {
			if _, err := tensor.MatMul(p.a, p.b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || per <= 0 {
		return 0
	}
	return flops / float64(per)
}

// callCost times serial Callable.Call of the MLP on a rows-row input and
// counts the allocations of each call.
func callCost(ctx context.Context, call *dcf.Callable, rows int) (us, allocs, bytesPer float64, err error) {
	x := normal(rand.New(rand.NewPCG(3, 4)), rows, mlpWidth)
	fn := func() error {
		_, err := call.Call(ctx, x)
		return err
	}
	per, err := timeReps(fn)
	if err != nil {
		return 0, 0, 0, err
	}
	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(per) / 1e3, float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
}

// lstmProbe is the L1 view of one LSTM training step at T=40.
type lstmProbe struct {
	forwardMs, stepMs    float64
	matmulFrac, busyFrac float64
}

// lstmProbe times forward-only runs and full training steps at T=40 on the
// LSTM fixture, then traces one step with RunOptions.Trace.
func (l *ladder) lstmProbe() (lstmProbe, error) {
	var p lstmProbe
	fx := l.lstm
	x := lstmInput(fx.seed, 1<<20, lstmProbeT)
	forward := func() error {
		_, _, err := fx.sess.RunCtx(l.ctx, dcf.RunOptions{Feeds: dcf.Feeds{"x": x}, Fetches: []dcf.Tensor{fx.m.loss}})
		return err
	}
	step := func() error {
		_, _, err := fx.sess.RunCtx(l.ctx, dcf.RunOptions{Feeds: dcf.Feeds{"x": x}, Fetches: []dcf.Tensor{fx.m.loss}, Targets: []dcf.Op{fx.m.step}})
		return err
	}
	if err := forward(); err != nil { // compile the forward-only plan
		return p, err
	}
	var err error
	if p.forwardMs, err = medianCallUs(forward, rungReps); err != nil {
		return p, err
	}
	if p.stepMs, err = medianCallUs(step, rungReps); err != nil {
		return p, err
	}
	p.forwardMs /= 1e3
	p.stepMs /= 1e3
	start := time.Now()
	_, md, err := fx.sess.RunCtx(l.ctx, dcf.RunOptions{Feeds: dcf.Feeds{"x": x}, Fetches: []dcf.Tensor{fx.m.loss}, Targets: []dcf.Op{fx.m.step}, Trace: true})
	wall := time.Since(start)
	if err != nil {
		return p, err
	}
	if md.StepTrace == nil {
		return p, fmt.Errorf("traced LSTM step returned no trace")
	}
	base := md.StepTrace.Base()
	var ivs []interval
	var total, mm time.Duration
	for _, e := range md.StepTrace.Events() {
		d := e.End - e.Start
		total += d
		if e.Op == "MatMul" {
			mm += d
		}
		ivs = append(ivs, interval{base.Add(e.Start), base.Add(e.End)})
	}
	if total > 0 {
		p.matmulFrac = float64(mm) / float64(total)
	}
	p.busyFrac = busyTime(ivs).Seconds() / wall.Seconds()
	return p, nil
}

// wireCost times cluster.TensorToWire plus gob encoding of the dist-loop
// payload, and gob decoding plus cluster.TensorFromWire, on one long-lived
// encoder and decoder as a connection uses them. Returns µs per message
// each way and the bytes of one message.
func wireCost() (enc, dec, size float64, err error) {
	x := normal(rand.New(rand.NewPCG(5, 6)), distRows, distCols)
	var stream bytes.Buffer
	e := gob.NewEncoder(&stream)
	if err := e.Encode(cluster.TensorToWire(x)); err != nil { // type header
		return 0, 0, 0, err
	}
	first := stream.Len()
	if err := e.Encode(cluster.TensorToWire(x)); err != nil {
		return 0, 0, 0, err
	}
	size = float64(stream.Len() - first)
	var sink bytes.Buffer
	es := gob.NewEncoder(&sink)
	perEnc, err := timeReps(func() error {
		sink.Reset()
		return es.Encode(cluster.TensorToWire(x))
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// A stream of messages for the decoder: the type header, then copies.
	const n = 4096
	for i := 0; i < n; i++ {
		if err := e.Encode(cluster.TensorToWire(x)); err != nil {
			return 0, 0, 0, err
		}
	}
	raw := append([]byte(nil), stream.Bytes()...)
	var per []float64
	for r := 0; r < rungReps; r++ {
		d := gob.NewDecoder(bytes.NewReader(raw))
		var w cluster.WireTensor
		if err := d.Decode(&w); err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			var w cluster.WireTensor
			if err := d.Decode(&w); err != nil {
				return 0, 0, 0, err
			}
			if _, err := cluster.TensorFromWire(&w); err != nil {
				return 0, 0, 0, err
			}
		}
		per = append(per, float64(time.Since(start))/n)
	}
	return float64(perEnc) / 1e3, median(per) / 1e3, size, nil
}

// rendezvousRTT is the median round trip, in µs, of the dist-loop payload
// between two rendezvous.Net endpoints on loopback: a sends, b receives and
// sends it back, a receives.
func rendezvousRTT() (float64, error) {
	a, err := rendezvous.NewNet("ra", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := rendezvous.NewNet("rb", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	a.AddPeer("rb", b.Addr())
	b.AddPeer("ra", a.Addr())
	x := normal(rand.New(rand.NewPCG(7, 8)), distRows, distCols)
	timeout := make(chan struct{})
	timer := time.AfterFunc(30*time.Second, func() { close(timeout) })
	defer timer.Stop()
	i := 0
	trip := func() error {
		i++
		ping, pong := fmt.Sprintf("ping%d;dstw=rb;", i), fmt.Sprintf("pong%d;dstw=ra;", i)
		if err := a.Send(ping, exec.Token{Val: ops.Value{T: x}}); err != nil {
			return err
		}
		tok, err := b.Recv(ping, timeout)
		if err != nil {
			return err
		}
		if err := b.Send(pong, tok); err != nil {
			return err
		}
		_, err = a.Recv(pong, timeout)
		return err
	}
	for w := 0; w < 50; w++ { // dial and warm both connections
		if err := trip(); err != nil {
			return 0, err
		}
	}
	return medianCallUs(trip, 1000)
}

// localItersPerS runs the dist-loop graph at distMaxTrips iterations in one
// in-process session: the single-worker baseline of dist_iters_per_s.
func localItersPerS(ctx context.Context, x *tensor.Tensor) (float64, error) {
	sess, out, err := localDistSession()
	if err != nil {
		return 0, err
	}
	feeds := distFeeds(x, distMaxTrips)
	run := func() error {
		_, _, err := sess.RunCtx(ctx, dcf.RunOptions{Feeds: feeds, Fetches: []dcf.Tensor{out}})
		return err
	}
	per, err := timeReps(run)
	if err != nil {
		return 0, err
	}
	return distMaxTrips / per.Seconds(), nil
}
