package bench

import (
	"fmt"
	"io"
	"time"

	"repro/dcf"
	"repro/internal/cluster"
	"repro/internal/distrib"
	"repro/internal/graph"
)

// Fig11Row is one point of Figure 11: the iteration rate of a distributed
// while-loop with a trivial per-machine body, with and without a barrier
// (AllReduce) at the end of each iteration.
type Fig11Row struct {
	Machines       int
	NoBarrierIPS   float64 // iterations per second
	BarrierIPS     float64
	NoBarrierUsPer float64 // microseconds per iteration
	BarrierUsPer   float64
}

// Fig11Config parameterizes the microbenchmark.
type Fig11Config struct {
	Machines   []int
	Iterations int           // loop trip count per measured run
	Latency    time.Duration // simulated one-way network latency
	MatrixDim  int           // per-machine matmul size (paper: "very small")
}

// fig11Worker names the one loopback worker daemon that hosts every Fig. 11
// "machine". Each machine is a device with its own executor on that worker,
// and the hops between machines go through the worker's in-memory
// rendezvous table, which charges the injected latency on every transfer.
const fig11Worker = "fig11"

// fig11Reps is how many steps each variant times per machine count.
const fig11Reps = 5

// DefaultFig11 mirrors the paper's sweep (1–64 machines). Latency defaults
// to zero: each "machine" is a separate executor, and the per-hop cost is
// the real cross-executor coordination cost (rendezvous synchronization and
// scheduling), which reproduces the paper's shape cleanly. Injected
// micro-sleep latencies are supported but unreliable on single-core hosts
// (Go timer granularity dominates); see the TestFig11LatencySweepDebug
// sweep.
func DefaultFig11(quick bool) Fig11Config {
	cfg := Fig11Config{
		Machines:   []int{1, 2, 4, 8, 16, 32, 64},
		Iterations: 400,
		Latency:    0,
		MatrixDim:  4,
	}
	if quick {
		cfg.Machines = []int{1, 4, 8}
		cfg.Iterations = 150
	}
	return cfg
}

// buildFig11Graph builds the single while-loop of §6.1, its body
// partitioned across `machines` devices. Each device holds a tiny matrix
// state updated per iteration; with barrier=true, every device's update
// additionally depends on an AllReduce (sum on the driver, redistributed),
// the Figure 10(b) dependence pattern; without it, devices are independent
// per Figure 10(a).
func buildFig11Graph(machines, iterations, dim int, barrier bool) (*dcf.Graph, []dcf.Tensor) {
	g := dcf.NewGraph()
	dev := func(m int) string { return fmt.Sprintf("m%d", m) }

	inits := []dcf.Tensor{}
	g.WithDevice(dev(0), func() {
		inits = append(inits, g.Scalar(0))
	})
	for m := 0; m < machines; m++ {
		g.WithDevice(dev(m), func() {
			inits = append(inits, g.Const(dcf.Eye(dim)))
		})
	}
	var outs []dcf.Tensor
	g.WithDevice(dev(0), func() {
		outs = g.While(
			inits,
			func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(float64(iterations))) },
			func(v []dcf.Tensor) []dcf.Tensor {
				next := []dcf.Tensor{v[0].Add(g.Scalar(1))}
				states := make([]dcf.Tensor, machines)
				for m := 0; m < machines; m++ {
					m := m
					g.WithDevice(dev(m), func() {
						states[m] = v[1+m].MatMul(v[1+m]).Minimum(g.Scalar(2))
					})
				}
				if barrier {
					// AllReduce: sum on the driver, then every
					// machine's next state depends on the sum.
					var sum dcf.Tensor
					g.WithDevice(dev(0), func() {
						sum = dcf.AddN(states...).Mul(g.Scalar(0))
					})
					for m := 0; m < machines; m++ {
						m := m
						g.WithDevice(dev(m), func() {
							states[m] = states[m].Add(sum)
						})
					}
				}
				return append(next, states...)
			},
			dcf.WhileOpts{Name: "dist_loop"},
		)
	})
	// Fetch every loop variable's exit so no machine's state chain is
	// pruned from the step.
	return g, outs
}

// runFig11Row measures one machine count on the fleet's worker: the
// no-barrier and barrier loops are registered side by side, warmed up, and
// then timed in alternation, fig11Reps steps each; each reports its
// fastest step. A quick step lasts a few milliseconds, so one sample, or
// all of one variant's samples taken before the other's, is at the mercy
// of whatever else the host schedules in that window.
func runFig11Row(fleet *distrib.Fleet, machines, iterations, dim int, latency time.Duration) (Fig11Row, error) {
	var clusters [2]*distrib.TCPCluster // no-barrier, barrier
	for i, barrier := range []bool{false, true} {
		g, outs := buildFig11Graph(machines, iterations, dim, barrier)
		if err := g.Err(); err != nil {
			return Fig11Row{}, err
		}
		fetches := make([]graph.Output, len(outs))
		for j, o := range outs {
			fetches[j] = o.Output()
		}
		c, err := fleet.NewCluster(g.Builder(), fetches, nil, distrib.TCPOptions{
			DefaultDevice: "m0",
			WorkerOf:      func(string) string { return fig11Worker },
			Latency:       latency,
		})
		if err != nil {
			return Fig11Row{}, fmt.Errorf("barrier=%v: %w", barrier, err)
		}
		defer c.Close()
		if _, err := c.Run(nil); err != nil { // warm-up
			return Fig11Row{}, fmt.Errorf("barrier=%v: %w", barrier, err)
		}
		clusters[i] = c
	}
	var best [2]time.Duration
	for r := 0; r < fig11Reps; r++ {
		for i, c := range clusters {
			d, err := timeIt(func() error {
				_, err := c.Run(nil)
				return err
			})
			if err != nil {
				return Fig11Row{}, fmt.Errorf("barrier=%v: %w", i == 1, err)
			}
			if r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	nb := float64(iterations) / best[0].Seconds()
	bar := float64(iterations) / best[1].Seconds()
	return Fig11Row{
		Machines:       machines,
		NoBarrierIPS:   nb,
		BarrierIPS:     bar,
		NoBarrierUsPer: 1e6 / nb,
		BarrierUsPer:   1e6 / bar,
	}, nil
}

// Fig11 runs the sweep and returns the series of Figure 11.
func Fig11(cfg Fig11Config, w io.Writer) ([]Fig11Row, error) {
	fprintf(w, "Figure 11: distributed while-loop iteration rate (latency=%v)\n", cfg.Latency)
	fprintf(w, "%10s %18s %18s\n", "machines", "no-barrier it/s", "barrier it/s")
	daemon, err := cluster.NewWorker(fig11Worker, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer daemon.Close()
	fleet, err := distrib.Dial(daemon.Addr())
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	var rows []Fig11Row
	for _, m := range cfg.Machines {
		row, err := runFig11Row(fleet, m, cfg.Iterations, cfg.MatrixDim, cfg.Latency)
		if err != nil {
			return nil, fmt.Errorf("fig11 machines=%d: %w", m, err)
		}
		rows = append(rows, row)
		fprintf(w, "%10d %18.0f %18.0f\n", m, row.NoBarrierIPS, row.BarrierIPS)
	}
	return rows, nil
}
