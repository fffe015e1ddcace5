// Command perfbench is the repository's benchmark. It runs one named
// workload against the system's Go API, checks every output, and prints each
// metric by name with its unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload lstm-train --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it measures the workload twice, once untraced and once
// recording spans around every public call the benchmark makes, then climbs
// the layer ladder (kernel, executor call, wire codec, rendezvous round
// trip, cluster step, router predict) and prints the per-layer metrics. The
// spans go to a Chrome trace-event file under .bench_build/.
//
// Workloads (see workloads below for why each exists):
//
//	lstm-train     in-process dynamic-RNN training, one closed-loop caller
//	serve-mlp      batched serving of a small MLP, open then closed loop
//	dist-loop      a while-loop partitioned over two TCP worker daemons
//	fleet-predict  the serve-mlp traffic through a router over two replicas
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one traffic mix. setup builds a fresh, warmed fixture: the
// benchmark times it several times to report setup_s. prepare computes the
// fixture's expected outputs and is not timed.
type workload struct {
	name  string
	why   string
	setup func(ctx context.Context, seed uint64) (fixture, error)
}

// fixture is a set-up workload ready to measure.
type fixture interface {
	// prepare computes the expected outputs of every input the fixture
	// will send.
	prepare(ctx context.Context) error
	// measure runs the workload for d, recording spans into sp when sp is
	// non-nil, and returns what it observed.
	measure(ctx context.Context, d time.Duration, sp *spans) (*phase, error)
	close()
}

// workloads are the benchmark's traffic mixes. Each stresses some layers and
// leaves others idle, so an optimisation of one layer has a workload where
// it should show and one where the prediction is "no change". BENCHMARK.json
// lists all but fleet-predict, with the same whys: a fourth workload of
// 30-s runs would make the full benchmark (two sets of ten seeds each)
// take too long. It stays runnable by name, and the traced run of every
// workload measures the router through it.
var workloads = []workload{
	{
		name:  "lstm-train",
		why:   "in-process dynamic-RNN training, T drawn 16-64 per step: kernels, loop frames and gradient stacks dominate while the serving layers idle",
		setup: setupLSTM,
	},
	{
		name:  "serve-mlp",
		why:   "tiny batched steps of a read-only MLP, open then closed loop: per-step executor overhead and batch formation dominate while kernels idle",
		setup: setupServe,
	},
	{
		name:  "dist-loop",
		why:   "a while-loop hopping between two TCP worker daemons (the paper's Fig. 11 path): rendezvous, wire codec and the step protocol dominate",
		setup: setupDist,
	},
	{
		name:  "fleet-predict",
		why:   "the serve-mlp traffic through a router over two loopback replicas: puts the cost of the fleet beside serve-mlp",
		setup: setupFleet,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints human-readable lines and collects the JSON metrics.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func newReport(w io.Writer) *report { return &report{w: w, metrics: map[string]metric{}} }

// line prints an informational line.
func (r *report) line(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

// show prints a named value without putting it in the JSON result.
func (r *report) show(name string, v float64, unit string) {
	fmt.Fprintf(r.w, "  %-32s %14.6g %s\n", name, v, unit)
}

// set prints a named value and puts it in the JSON result.
func (r *report) set(name string, v float64, unit string) {
	r.show(name, v, unit)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// config is one run's arguments.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spanDir  string
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&cfg.spanDir, "spans", ".bench_build/spans", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := findWorkload(cfg.workload); !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// run executes one benchmark run and returns its JSON result.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	// Go before 1.25 sizes GOMAXPROCS from the host's CPUs, not the
	// container's quota; pin it to the CPUs this process may run on.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	rep := newReport(out)
	w, _ := findWorkload(cfg.workload)
	rep.line("perfbench workload=%s seed=%d seconds=%g trace=%v", w.name, cfg.seed, cfg.seconds, cfg.trace)
	rep.line("machine gomaxprocs=%d nproc=%d go=%s os=%s/%s cpu=%q", runtime.GOMAXPROCS(0), procs,
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	rep.line("workload why: %s", w.why)

	fx, setupS, err := timedSetup(ctx, w, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer fx.close()
	if err := fx.prepare(ctx); err != nil {
		return nil, fmt.Errorf("%s prepare: %w", w.name, err)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	// A hung call fails its operation instead of hanging the run.
	ctx, cancel := context.WithTimeout(ctx, 2*d+time.Minute)
	defer cancel()
	if cfg.trace {
		return tracedRun(ctx, cfg, w, fx, d, rep)
	}
	ph, err := fx.measure(ctx, d, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ph.report(rep, w)
	rep.set("setup_s", setupS, "s")
	return ph.result(rep), nil
}

// setupReps bounds how often set-up is timed: at least minSetupReps times,
// then again while the total stays under setupBudget, up to maxSetupReps.
const (
	minSetupReps = 5
	maxSetupReps = 100
	setupBudget  = time.Second
)

// timedSetup sets the workload up several times, keeps the last fixture,
// and returns the median set-up time in seconds.
func timedSetup(ctx context.Context, w workload, seed uint64) (fixture, float64, error) {
	var times []float64
	var total time.Duration
	var kept fixture
	for len(times) < minSetupReps || (len(times) < maxSetupReps && total < setupBudget) {
		if kept != nil {
			kept.close()
		}
		start := time.Now()
		fx, err := w.setup(ctx, seed)
		el := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		kept = fx
		total += el
		times = append(times, el.Seconds())
	}
	return kept, median(times), nil
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
