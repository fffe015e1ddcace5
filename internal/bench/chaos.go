// The chaos experiment measures the cost of the §3 failure model: a
// stateful two-daemon job runs under the fault-tolerant job layer
// (distributed checkpoints every few steps), one daemon is killed mid-run
// and restarted shortly after, and the run records throughput before the
// kill, through the recovery window (rollback + rebuild + replay), and
// after the job regains its pre-kill frontier. Recovery latency is the
// wall time from the kill to the first step beyond that frontier. Every
// step's fetch is verified against the value an undisturbed run produces,
// so the row is only reported if recovery was bit-exact.

package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// ChaosRow is the experiment's single result row.
type ChaosRow struct {
	Steps           int
	Iters           int
	CheckpointEvery uint64
	KillAtStep      uint64
	// BeforeStepsPerSec is the steady-state rate up to the kill.
	BeforeStepsPerSec float64
	// DuringStepsPerSec is the delivery rate across the recovery window —
	// the outage plus the replayed steps, ending when the job first
	// completes a step it had not completed before the kill.
	DuringStepsPerSec float64
	// AfterStepsPerSec is the rate once the job is past its pre-kill
	// frontier.
	AfterStepsPerSec float64
	// RecoveryMs is the recovery window's length: kill to frontier regained.
	RecoveryMs float64
	// ReplayedSteps counts re-delivered steps (at-least-once replay from
	// the rollback checkpoint).
	ReplayedSteps int
	Rebuilds      int
}

// ChaosConfig parameterizes the scenario.
type ChaosConfig struct {
	Steps           int
	Iters           int
	CheckpointEvery uint64
	RestartAfter    time.Duration // daemon downtime before restart
}

// DefaultChaos sizes the run so the kill lands well inside it.
func DefaultChaos(quick bool) ChaosConfig {
	cfg := ChaosConfig{Steps: 300, Iters: 20, CheckpointEvery: 25, RestartAfter: 300 * time.Millisecond}
	if quick {
		cfg = ChaosConfig{Steps: 120, Iters: 10, CheckpointEvery: 10, RestartAfter: 200 * time.Millisecond}
	}
	return cfg
}

// Chaos runs the kill-and-recover scenario and reports one row.
func Chaos(ctx context.Context, cfg ChaosConfig, dir string, w io.Writer) ([]ChaosRow, error) {
	// Land the kill mid-checkpoint-interval, not on a boundary, so the
	// recovery window includes genuine replay (boundary kills replay
	// nothing and understate the §3 model's cost).
	killAt := uint64(cfg.Steps/2) + cfg.CheckpointEvery/2
	row := ChaosRow{Steps: cfg.Steps, Iters: cfg.Iters, CheckpointEvery: cfg.CheckpointEvery, KillAtStep: killAt}
	fprintf(w, "chaos: %d-step stateful job, kill+restart one of two daemons at step %d (checkpoint every %d)\n",
		cfg.Steps, killAt, cfg.CheckpointEvery)

	daemons := make([]*cluster.Worker, 2)
	names := []string{"cw00", "cw01"}
	addrs := make([]string, 2)
	for i, name := range names {
		d, err := cluster.NewWorker(name, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		daemons[i] = d
		addrs[i] = d.Addr()
	}
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.Close()
			}
		}
	}()
	fleet, err := distrib.Dial(addrs...)
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	type delivery struct {
		step uint64
		at   time.Time
	}
	var deliveries []delivery
	var tKill time.Time
	restarted := make(chan error, 1)
	limit := tensor.Scalar(float64(cfg.Iters))
	spec := distrib.JobSpec{
		Build: func(workers []string) (*core.Builder, []graph.Output, error) {
			b, outs := cluster.BuildCounterJob(workers)
			return b, outs, b.Err()
		},
		Init:  map[string]*tensor.Tensor{"acc": tensor.Scalar(0)},
		Feeds: func(uint64) map[string]*tensor.Tensor { return map[string]*tensor.Tensor{"limit": limit} },
		OnStep: func(step uint64, vals []*tensor.Tensor) error {
			if want := float64(step) * float64(cfg.Iters); vals[0].ScalarValue() != want {
				return fmt.Errorf("step %d: fetch %v, want %v (recovery not bit-exact)", step, vals[0].ScalarValue(), want)
			}
			deliveries = append(deliveries, delivery{step, time.Now()})
			if step == killAt && tKill.IsZero() {
				tKill = time.Now()
				victim := daemons[1]
				daemons[1] = nil
				ctrl := victim.Addr()
				victim.Close()
				go func() {
					time.Sleep(cfg.RestartAfter)
					d, err := cluster.NewWorker(names[1], ctrl, "127.0.0.1:0")
					if err == nil {
						daemons[1] = d
					}
					restarted <- err
				}()
			}
			return nil
		},
		OnRebuild: func(workers []string, from uint64) {
			row.Rebuilds++
			fprintf(w, "  rolled back to step %d, rebuilt over %v\n", from, workers)
		},
	}

	t0 := time.Now()
	if _, err := distrib.RunJob(ctx, fleet, spec, distrib.JobOptions{
		Steps:          uint64(cfg.Steps),
		TCP:            distrib.TCPOptions{CheckpointDir: dir, CheckpointEvery: cfg.CheckpointEvery},
		MaxStepRetries: 10,
		RetryBackoff:   100 * time.Millisecond,
	}); err != nil {
		return nil, err
	}
	if err := <-restarted; err != nil {
		return nil, fmt.Errorf("daemon restart: %w", err)
	}
	tEnd := time.Now()
	if row.Rebuilds == 0 {
		return nil, fmt.Errorf("chaos: the kill never forced a rebuild (run too fast for the scenario?)")
	}

	// Recovery window: kill -> first completion of a step beyond the
	// pre-kill frontier.
	var tCaughtUp time.Time
	during := 0
	for _, d := range deliveries {
		if d.at.After(tKill) {
			if d.step > killAt {
				tCaughtUp = d.at
				break
			}
			during++
		}
	}
	if tCaughtUp.IsZero() {
		return nil, fmt.Errorf("chaos: job never passed its pre-kill frontier")
	}
	after := 0
	for _, d := range deliveries {
		if d.at.After(tCaughtUp) {
			after++
		}
	}
	row.BeforeStepsPerSec = float64(killAt) / tKill.Sub(t0).Seconds()
	row.DuringStepsPerSec = float64(during+1) / tCaughtUp.Sub(tKill).Seconds()
	row.AfterStepsPerSec = float64(after) / tEnd.Sub(tCaughtUp).Seconds()
	row.RecoveryMs = tCaughtUp.Sub(tKill).Seconds() * 1e3
	row.ReplayedSteps = len(deliveries) - cfg.Steps

	fprintf(w, "%14s %14s %14s %12s %10s %9s\n", "before_steps/s", "during_steps/s", "after_steps/s", "recovery_ms", "replayed", "rebuilds")
	fprintf(w, "%14.1f %14.1f %14.1f %12.1f %10d %9d\n",
		row.BeforeStepsPerSec, row.DuringStepsPerSec, row.AfterStepsPerSec, row.RecoveryMs, row.ReplayedSteps, row.Rebuilds)
	return []ChaosRow{row}, nil
}
