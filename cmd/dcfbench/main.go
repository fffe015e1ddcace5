// Command dcfbench regenerates the tables and figures of the paper's
// evaluation (§6). Run all experiments or one by id:
//
//	dcfbench                  # everything, full sweeps
//	dcfbench -exp fig11       # one experiment
//	dcfbench -quick           # reduced sweeps (CI scale)
//	dcfbench -exp fig13 -out fig13_timeline.txt
//	dcfbench -exp fig12 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiment ids: fig11, fig12, table1, fig13, fig14, fig15, dqn,
// ablations, chaos, fleetserve. The chaos experiment kills and restarts a
// worker daemon in the middle of a checkpointed distributed job and
// reports the recovery time. The fleetserve experiment sweeps the
// replicated serving router (internal/fleetserve) over replica counts
// {1,2,4} in closed and open loop (up to -concurrency callers), with and
// without one replica daemon killed and restarted mid-run, reporting
// before/during/after-kill throughput and the recovery time to readmission.
//
// The -cpuprofile/-memprofile flags write pprof profiles covering the
// selected experiments, so perf work on the figures needs no code edits:
// go tool pprof cpu.pprof.
//
// dcfbench answers whether the paper's shapes reproduce. How fast each
// layer of the system is (kernels, executor step, batcher, wire codec,
// rendezvous, TCP step, fleet predict) is measured by perfbench
// (bash perfbench/run.sh), and a traced distributed step comes from
// dcfworker -drive -trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() {
	os.Exit(run1())
}

// run1 is main's body; returning the exit code (instead of calling os.Exit
// inline) lets the deferred profile writers run on failure paths too.
func run1() int {
	exp := flag.String("exp", "all", "experiment id (fig11|fig12|table1|fig13|fig14|fig15|dqn|ablations|chaos|fleetserve|all)")
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	concurrency := flag.Int("concurrency", runtime.GOMAXPROCS(0)*2, "fleetserve: closed-loop callers per replica count")
	out := flag.String("out", "", "also write figure artifacts (fig13 timeline / chrome trace) to this path prefix")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	run := func(id string) error {
		var err error
		switch id {
		case "fig11":
			_, err = bench.Fig11(bench.DefaultFig11(*quick), os.Stdout)
		case "fig12":
			_, err = bench.Fig12(bench.DefaultFig12(*quick), os.Stdout)
		case "table1":
			_, err = bench.Table1(bench.DefaultTable1(*quick), os.Stdout)
		case "fig13":
			seq := 400
			if *quick {
				seq = 80
			}
			res, err := bench.Fig13(bench.DefaultTable1(*quick), seq, os.Stdout)
			if err != nil || *out == "" {
				return err
			}
			if err := os.WriteFile(*out+".txt", []byte(res.Timeline), 0o644); err != nil {
				return err
			}
			if err := os.WriteFile(*out+".json", res.ChromeJSON, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s.txt and %s.json\n", *out, *out)
		case "fig14":
			_, err = bench.Fig14(bench.DefaultFig14(*quick), os.Stdout)
		case "fig15":
			_, err = bench.Fig15(bench.DefaultFig15(*quick), os.Stdout)
		case "dqn":
			_, err = bench.DQN(bench.DefaultDQN(*quick), os.Stdout)
		case "chaos":
			dir, derr := os.MkdirTemp("", "dcf-chaos-ck-")
			if derr != nil {
				return derr
			}
			defer os.RemoveAll(dir)
			_, err = bench.Chaos(context.Background(), bench.DefaultChaos(*quick), dir, os.Stdout)
		case "fleetserve":
			_, err = bench.FleetServe(context.Background(), bench.DefaultFleetServe(*quick, *concurrency), os.Stdout)
		case "ablations":
			for _, n := range []int{16, 256} {
				if _, err := bench.AblationDeadness(n, 50, os.Stdout); err != nil {
					return err
				}
			}
			if _, err := bench.AblationTagOverhead(256, 50, os.Stdout); err != nil {
				return err
			}
			_, _, err = bench.AblationStackSwap(40, 64, os.Stdout)
		default:
			err = fmt.Errorf("unknown experiment %q", id)
		}
		return err
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig11", "fig12", "table1", "fig13", "fig14", "fig15", "dqn", "ablations", "chaos", "fleetserve"}
	}
	for _, id := range ids {
		fmt.Printf("==== %s ====\n", id)
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			return 1
		}
		fmt.Println()
	}
	return 0
}
