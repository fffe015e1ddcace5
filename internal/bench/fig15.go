package bench

import (
	"fmt"
	"io"
	"time"

	"repro/dcf"
	"repro/internal/nn"
)

// Fig15Row is one point of Figure 15: normalized training-step throughput
// of an 8-layer LSTM as layers are spread over 1–8 GPUs (paper: ~5.5× at 8
// GPUs, sublinear due to DMA overheads, mitigated by cross-iteration
// overlap).
type Fig15Row struct {
	GPUs      int
	Timesteps int
	StepsSec  float64
	Speedup   float64
}

// Fig15Config parameterizes the model-parallel experiment.
type Fig15Config struct {
	GPUs       []int
	Timesteps  []int
	Layers     int
	Units      int
	Batch      int
	In         int
	MatMulCost time.Duration // simulated per-matmul GPU time
}

// DefaultFig15 mirrors the paper's sweep (1–8 GPUs; timesteps 50/100/200),
// scaled down for pure-Go math.
func DefaultFig15(quick bool) Fig15Config {
	cfg := Fig15Config{
		GPUs:       []int{1, 2, 4, 8},
		Timesteps:  []int{50, 100},
		Layers:     8,
		Units:      16,
		Batch:      8,
		In:         16,
		MatMulCost: 250 * time.Microsecond,
	}
	if quick {
		cfg.GPUs = []int{1, 4}
		cfg.Timesteps = []int{16}
	}
	return cfg
}

// fig15Measure builds an 8-layer LSTM training step with layer l placed on
// simulated GPU l % gpus and measures one step's wall time.
func fig15Measure(cfg Fig15Config, gpus, timesteps int) (float64, error) {
	g := dcf.NewGraph()
	devOf := func(l int) string { return fmt.Sprintf("gpu:%d", l%gpus) }
	cells := make([]*nn.LSTMCell, cfg.Layers)
	devices := make([]string, cfg.Layers)
	vars := &nn.VarSet{}
	for l := 0; l < cfg.Layers; l++ {
		in := cfg.Units
		if l == 0 {
			in = cfg.In
		}
		devices[l] = devOf(l)
		g.WithDevice(devices[l], func() {
			cells[l] = nn.NewLSTMCell(g, fmt.Sprintf("l%d", l), in, cfg.Units, uint64(l)+1)
		})
		vars.Merge(&cells[l].Vars)
	}
	x := g.Placeholder("x")
	r := nn.MultiLayerDynamicRNN(g, cells, x, cfg.Batch, devices, dcf.WhileOpts{})
	var loss dcf.Tensor
	g.WithDevice(devices[cfg.Layers-1], func() {
		loss = r.Outputs.Square().ReduceMean(nil, false)
	})
	step, err := nn.SGDStep(g, loss, vars, 0.01, false)
	if err != nil {
		return 0, err
	}
	if err := g.Err(); err != nil {
		return 0, err
	}
	var devCfgs []dcf.DeviceConfig
	for d := 0; d < gpus; d++ {
		devCfgs = append(devCfgs, dcf.DeviceConfig{
			Name: fmt.Sprintf("gpu:%d", d),
			KernelCost: func(op string) time.Duration {
				if op == "MatMul" {
					return cfg.MatMulCost
				}
				return 0
			},
		})
	}
	sess := dcf.NewSessionOpts(g, dcf.SessionOptions{Devices: devCfgs})
	defer sess.Close()
	if err := sess.InitVariables(); err != nil {
		return 0, err
	}
	xv := dcf.RandNormal(5, 0, 1, timesteps, cfg.Batch, cfg.In)
	feeds := dcf.Feeds{"x": xv}
	if err := sess.RunTargets(feeds, step); err != nil { // warm-up
		return 0, err
	}
	d, err := timeIt(func() error { return sess.RunTargets(feeds, step) })
	if err != nil {
		return 0, err
	}
	return 1 / d.Seconds(), nil
}

// Fig15 runs the model-parallel speedup sweep.
func Fig15(cfg Fig15Config, w io.Writer) ([]Fig15Row, error) {
	fprintf(w, "Figure 15: %d-layer LSTM model parallelism (units=%d batch=%d)\n", cfg.Layers, cfg.Units, cfg.Batch)
	fprintf(w, "%10s %10s %12s %10s\n", "timesteps", "gpus", "steps/s", "speedup")
	var rows []Fig15Row
	for _, ts := range cfg.Timesteps {
		var base float64
		for _, gpus := range cfg.GPUs {
			sps, err := fig15Measure(cfg, gpus, ts)
			if err != nil {
				return nil, fmt.Errorf("fig15 gpus=%d ts=%d: %w", gpus, ts, err)
			}
			if gpus == cfg.GPUs[0] {
				base = sps
			}
			row := Fig15Row{GPUs: gpus, Timesteps: ts, StepsSec: sps, Speedup: sps / base}
			rows = append(rows, row)
			fprintf(w, "%10d %10d %12.3f %9.2fx\n", ts, gpus, sps, row.Speedup)
		}
	}
	return rows, nil
}
