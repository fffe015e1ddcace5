// The fleetserve experiment measures what replication buys the serving
// story: request throughput and tail latency over replica counts {1, 2, 4},
// in closed loop (a fixed worker pool, each firing the next request as the
// previous answers) and open loop (a fixed arrival rate, insensitive to
// service time — the load a real front end actually sees). Each sweep runs
// with and without one replica kill -9'd mid-run and restarted, splitting
// the observed rate into before / during-outage / after-readmission, so
// the row series shows directly that a dead daemon costs capacity
// (during-RPS dips toward the survivors' share) but not availability
// (errors stay 0 for every replicated row; the one-replica kill row is the
// control that shows what the router cannot save).

package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleetserve"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// FleetServeRow is one (replicas, loop mode, kill) cell of the sweep.
type FleetServeRow struct {
	Replicas    int
	Concurrency int // closed-loop worker count (0 = open loop)
	OpenRPS     int // open-loop target arrival rate (0 = closed loop)
	Killed      bool

	Requests  int
	Errors    int
	Retries   int64
	Exhausted int64

	RPS   float64
	P50Ms float64
	P99Ms float64

	// The kill rows split the run at the kill and at the victim's
	// readmission.
	BeforeRPS  float64
	DuringRPS  float64
	AfterRPS   float64
	RecoveryMs float64 // kill -> victim active again
}

// FleetServeConfig parameterizes the sweep.
type FleetServeConfig struct {
	ReplicaCounts []int
	Concurrency   int           // closed-loop worker pool
	OpenRPS       int           // open-loop arrival rate
	Duration      time.Duration // per-row load window
	RestartAfter  time.Duration // victim downtime before restart
}

// DefaultFleetServe sizes the sweep; quick halves the load windows.
func DefaultFleetServe(quick bool, concurrency int) FleetServeConfig {
	cfg := FleetServeConfig{
		ReplicaCounts: []int{1, 2, 4},
		Concurrency:   concurrency,
		OpenRPS:       200,
		Duration:      3 * time.Second,
		RestartAfter:  400 * time.Millisecond,
	}
	if quick {
		cfg.Duration = 1200 * time.Millisecond
		cfg.OpenRPS = 100
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	return cfg
}

// fleetBenchConfig is the served model: y = x + 1 on a single worker per
// replica — small enough that the measurement is routing + batching, not
// kernels.
func fleetBenchConfig() fleetserve.Config {
	return fleetserve.Config{
		Build: func(workers []string) (*core.Builder, []graph.Output, error) {
			b := core.NewBuilder()
			var out graph.Output
			b.WithDevice(workers[0]+"/cpu", func() {
				out = b.Add(b.Placeholder("x"), b.Scalar(1))
			})
			return b, []graph.Output{out}, b.Err()
		},
		Feeds:  []string{"x"},
		Warmup: []*tensor.Tensor{tensor.Zeros(1, 8)},
	}
}

// FleetServe runs the sweep and reports one row per cell.
func FleetServe(ctx context.Context, cfg FleetServeConfig, w io.Writer) ([]FleetServeRow, error) {
	var rows []FleetServeRow
	fprintf(w, "fleetserve: %v replicas x {closed %d workers, open %d req/s} x {steady, kill+restart}, %v per row\n",
		cfg.ReplicaCounts, cfg.Concurrency, cfg.OpenRPS, cfg.Duration)
	fprintf(w, "%8s %6s %8s %6s %8s %7s %7s %7s %9s %9s %9s %11s %7s\n",
		"replicas", "mode", "rps", "errs", "retries", "p50_ms", "p99_ms", "", "before", "during", "after", "recovery_ms", "")
	for _, n := range cfg.ReplicaCounts {
		for _, open := range []bool{false, true} {
			for _, killed := range []bool{false, true} {
				row, err := fleetServeRun(ctx, cfg, n, open, killed)
				if err != nil {
					return nil, fmt.Errorf("fleetserve replicas=%d open=%v killed=%v: %w", n, open, killed, err)
				}
				mode := "closed"
				if open {
					mode = "open"
				}
				kill := ""
				if killed {
					kill = "kill"
				}
				fprintf(w, "%8d %6s %8.1f %6d %8d %7.2f %7.2f %7s %9.1f %9.1f %9.1f %11.1f %7s\n",
					row.Replicas, mode, row.RPS, row.Errors, row.Retries, row.P50Ms, row.P99Ms, "",
					row.BeforeRPS, row.DuringRPS, row.AfterRPS, row.RecoveryMs, kill)
				rows = append(rows, *row)
			}
		}
	}
	return rows, nil
}

// fleetServeRun measures one cell: n single-daemon replicas under load,
// optionally with the first replica's daemon killed mid-run and restarted.
func fleetServeRun(ctx context.Context, cfg FleetServeConfig, n int, open, killed bool) (*FleetServeRow, error) {
	daemons := make([]*cluster.Worker, n)
	groups := make([][]string, n)
	names := make([]string, n)
	for i := range daemons {
		names[i] = fmt.Sprintf("fs%02d", i)
		d, err := cluster.NewWorker(names[i], "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		daemons[i] = d
		groups[i] = []string{d.Addr()}
	}
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.Close()
			}
		}
	}()

	router, err := fleetserve.New(ctx, fleetBenchConfig(), fleetserve.Options{
		ProbeInterval:  100 * time.Millisecond,
		BreakerBackoff: backoff.Exp{Base: 100 * time.Millisecond, Max: time.Second},
		StepTimeout:    2 * time.Second,
		MaxRetries:     3,
		Batch:          serve.Options{MaxBatchSize: 32, MaxQueueDelay: time.Millisecond, MaxInFlight: 2},
	}, groups...)
	if err != nil {
		return nil, err
	}
	defer router.Close()
	victimName := router.Replicas()[0]

	// Load phase: every completed request logs (when, how long, ok).
	type sample struct {
		at  time.Time
		lat time.Duration
		ok  bool
	}
	var mu sync.Mutex
	var samples []sample
	arg := tensor.Zeros(1, 8)
	oneRequest := func(rctx context.Context) bool {
		s := time.Now()
		_, err := router.Predict(rctx, arg)
		if err != nil && rctx.Err() != nil {
			// The load window closed under an in-flight request; that is
			// the harness hanging up, not a serving failure — not a sample.
			return true
		}
		mu.Lock()
		samples = append(samples, sample{time.Now(), time.Since(s), err == nil})
		mu.Unlock()
		return err == nil
	}

	t0 := time.Now()
	deadline := t0.Add(cfg.Duration)
	lctx, lcancel := context.WithDeadline(ctx, deadline)
	defer lcancel()
	var wg sync.WaitGroup
	if open {
		// Open loop: arrivals at a fixed rate regardless of completions.
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Second / time.Duration(cfg.OpenRPS))
			defer tick.Stop()
			for {
				select {
				case <-lctx.Done():
					return
				case <-tick.C:
					wg.Add(1)
					go func() {
						defer wg.Done()
						oneRequest(lctx)
					}()
				}
			}
		}()
	} else {
		for g := 0; g < cfg.Concurrency; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					if !oneRequest(lctx) {
						// A well-behaved client backs off on 503 instead
						// of hammering an empty pool.
						time.Sleep(backoff.Jitter(2 * time.Millisecond))
					}
				}
			}()
		}
	}

	// Kill phase: drop the victim a third of the way in, restart it after
	// RestartAfter, and note when the router readmits it.
	var tKill, tReadmit time.Time
	if killed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			killTimer := time.NewTimer(cfg.Duration / 3)
			defer killTimer.Stop()
			select {
			case <-lctx.Done():
				return
			case <-killTimer.C:
			}
			victim := daemons[0]
			daemons[0] = nil
			ctrl := victim.Addr()
			tKill = time.Now()
			victim.Close()

			restartTimer := time.NewTimer(cfg.RestartAfter)
			defer restartTimer.Stop()
			<-restartTimer.C
			d, err := cluster.NewWorker(names[0], ctrl, "127.0.0.1:0")
			if err != nil {
				return
			}
			daemons[0] = d
			// The row's recovery figure needs the readmission moment, so
			// this run is allowed to outlast Duration by the (bounded)
			// wait for the prober to act.
			pollUntil := time.Now().Add(10 * time.Second)
			for tReadmit.IsZero() && time.Now().Before(pollUntil) {
				for _, rs := range router.Snapshot().Replicas {
					if rs.Name == victimName && rs.State == fleetserve.StateActive.String() {
						tReadmit = time.Now()
					}
				}
				time.Sleep(backoff.Jitter(5 * time.Millisecond))
			}
		}()
	}
	wg.Wait()
	tEnd := time.Now()

	st := router.Snapshot()
	row := &FleetServeRow{
		Replicas:  n,
		Killed:    killed,
		Retries:   st.Retries,
		Exhausted: st.Exhausted,
		Requests:  len(samples),
	}
	if open {
		row.OpenRPS = cfg.OpenRPS
	} else {
		row.Concurrency = cfg.Concurrency
	}
	lats := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if !s.ok {
			row.Errors++
			continue
		}
		lats = append(lats, s.lat)
	}
	row.RPS = float64(len(lats)) / tEnd.Sub(t0).Seconds()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		row.P50Ms = float64(lats[len(lats)/2]) / 1e6
		row.P99Ms = float64(lats[len(lats)*99/100]) / 1e6
	}
	if killed && !tKill.IsZero() {
		before, during, after := 0, 0, 0
		for _, s := range samples {
			if !s.ok {
				continue
			}
			switch {
			case s.at.Before(tKill):
				before++
			case tReadmit.IsZero() || s.at.Before(tReadmit):
				during++
			default:
				after++
			}
		}
		row.BeforeRPS = float64(before) / tKill.Sub(t0).Seconds()
		if tReadmit.IsZero() {
			row.DuringRPS = float64(during) / tEnd.Sub(tKill).Seconds()
		} else {
			row.DuringRPS = float64(during) / tReadmit.Sub(tKill).Seconds()
			row.AfterRPS = float64(after) / tEnd.Sub(tReadmit).Seconds()
			row.RecoveryMs = tReadmit.Sub(tKill).Seconds() * 1e3
		}
	}
	// Replication's availability claim, checked here rather than left to
	// the reader: with 2+ replicas a kill must not surface client errors.
	if killed && n > 1 && row.Errors > 0 {
		return nil, fmt.Errorf("%d client-visible errors with %d replicas (retries=%d exhausted=%d)",
			row.Errors, n, row.Retries, row.Exhausted)
	}
	return row, nil
}
