package repro

// One benchmark per table and figure of the paper's evaluation (§6), plus
// the ablations. Each wraps the corresponding driver in
// internal/bench at reduced ("quick") scale; cmd/dcfbench runs the full
// sweeps and prints the paper-style tables.

import (
	"testing"

	"repro/internal/bench"
)

// BenchmarkFig11DistributedLoop regenerates Figure 11: iteration rate of a
// while-loop distributed across simulated machines, barrier vs no-barrier.
func BenchmarkFig11DistributedLoop(b *testing.B) {
	cfg := bench.DefaultFig11(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig11(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.NoBarrierIPS, "no-barrier-iters/s")
			b.ReportMetric(last.BarrierIPS, "barrier-iters/s")
		}
	}
}

// BenchmarkFig12ParallelIterations regenerates Figure 12: the effect of the
// parallel-iterations window on an 8-GPU pipelined loop. The serial point
// (window=1) is also the §6.1 out-of-graph-equivalent baseline.
func BenchmarkFig12ParallelIterations(b *testing.B) {
	cfg := bench.DefaultFig12(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig12(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].SpeedupVsSerial, "pipeline-speedup-x")
		}
	}
}

// BenchmarkTable1MemorySwap regenerates Table 1: LSTM training time per
// loop iteration by sequence length, swapping disabled (OOM past the
// boundary) vs enabled.
func BenchmarkTable1MemorySwap(b *testing.B) {
	cfg := bench.DefaultTable1(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].EnabledMs, "swap-ms/iter")
		}
	}
}

// BenchmarkFig13StreamOverlap regenerates Figure 13's measurement: the
// compute stream overlapping the DtoH copy stream during a swap-enabled
// training step.
func BenchmarkFig13StreamOverlap(b *testing.B) {
	cfg := bench.DefaultTable1(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig13(cfg, 60, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.OverlapD2H.Microseconds()), "overlap-us")
		}
	}
}

// BenchmarkFig14DynamicVsStatic regenerates Figure 14: dynamic control flow
// vs static unrolling across batch sizes.
func BenchmarkFig14DynamicVsStatic(b *testing.B) {
	cfg := bench.DefaultFig14(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig14(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].SlowdownPct, "dynamic-slowdown-%")
		}
	}
}

// BenchmarkFig15ModelParallelism regenerates Figure 15: 8-layer LSTM
// speedup across simulated GPUs (training step including gradients).
func BenchmarkFig15ModelParallelism(b *testing.B) {
	cfg := bench.DefaultFig15(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig15(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].Speedup, "model-parallel-speedup-x")
		}
	}
}

// BenchmarkDQNInGraphVsOutOfGraph regenerates §6.5: the in-graph DQN
// against the client-driven baseline.
func BenchmarkDQNInGraphVsOutOfGraph(b *testing.B) {
	cfg := bench.DefaultDQN(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.DQN(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.SpeedupPct, "in-graph-speedup-%")
		}
	}
}

// BenchmarkAblationDeadnessPropagation measures the cost of dead-token
// propagation on an untaken branch as it grows (§4.4 motivation for the
// broadcast optimization).
func BenchmarkAblationDeadnessPropagation(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationDeadness(128, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTagEncoding measures per-op dispatch cost of the tagged-
// token executor on a control-flow-free chain (the fixed overhead behind
// Figure 14's 3–8%).
func BenchmarkAblationTagEncoding(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationTagOverhead(256, 5, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStackSwap isolates the stack push/pop swapping cost from
// Table 1's end-to-end view.
func BenchmarkAblationStackSwap(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.AblationStackSwap(16, 48, nil); err != nil {
			b.Fatal(err)
		}
	}
}
