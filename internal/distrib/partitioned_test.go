package distrib

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// The tests in this file build graphs on devices "dev:0", "dev:1", ... and
// run them on a loopback fleet of n worker daemons that hosts device dev:i
// on worker workerName(i mod n). With one worker per device every
// cross-device edge is a cross-worker TCP hop; with fewer workers, devices
// sharing a worker hop through its in-memory rendezvous table.

// newDevCluster starts n worker daemons, dials them, and registers the
// graph's partitions with dev:i placed on workerName(i mod n). Everything
// is torn down when the test ends.
func newDevCluster(t *testing.T, n int, b *core.Builder, fetches []graph.Output, targets []*graph.Node) (*TCPCluster, error) {
	t.Helper()
	_, addrs := startWorkers(t, n)
	fleet, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	workerOf := func(dev string) string {
		i, err := strconv.Atoi(strings.TrimPrefix(dev, "dev:"))
		if err != nil {
			return dev
		}
		return workerName(i % n)
	}
	c, err := fleet.NewCluster(b, fetches, targets, TCPOptions{DefaultDevice: "dev:0", WorkerOf: workerOf})
	if err != nil {
		return nil, err
	}
	t.Cleanup(c.Close)
	return c, nil
}

func mustDevCluster(t *testing.T, n int, b *core.Builder, fetches []graph.Output, targets []*graph.Node) *TCPCluster {
	t.Helper()
	c, err := newDevCluster(t, n, b, fetches, targets)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimpleCrossDeviceEdge(t *testing.T) {
	b := core.NewBuilder()
	var x, y graph.Output
	b.WithDevice("dev:0", func() { x = b.Scalar(3) })
	b.WithDevice("dev:1", func() { y = b.Square(x) }) // crosses dev0 -> dev1
	c := mustDevCluster(t, 2, b, []graph.Output{y}, nil)
	if len(c.Workers()) != 2 {
		t.Fatalf("workers: %v", c.Workers())
	}
	out, err := c.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarValue() != 9 {
		t.Fatalf("got %v", out[0])
	}
}

func TestDistributedWhileLoop(t *testing.T) {
	// Loop driver on dev:0; the body's op on dev:1 (the Figure 6 setup).
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("dev:0", func() {
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(10)) },
			func(v []graph.Output) []graph.Output {
				var r graph.Output
				b.WithDevice("dev:1", func() {
					r = b.Add(v[0], b.Scalar(1)) // Op on device B
				})
				return []graph.Output{r}
			},
			core.WhileOpts{},
		)
	})
	c := mustDevCluster(t, 2, b, []graph.Output{outs[0]}, nil)
	out, err := c.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarValue() != 10 {
		t.Fatalf("got %v, want 10", out[0])
	}
}

func TestDistributedLoopManyDevices(t *testing.T) {
	// A chain of ops across 4 devices inside one loop.
	b := core.NewBuilder()
	devs := []string{"dev:0", "dev:1", "dev:2", "dev:3"}
	var outs []graph.Output
	b.WithDevice(devs[0], func() {
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(6)) },
			func(v []graph.Output) []graph.Output {
				cur := v[0]
				for _, d := range devs[1:] {
					b.WithDevice(d, func() {
						cur = b.Add(cur, b.Scalar(0.25))
					})
				}
				b.WithDevice(devs[0], func() {
					cur = b.Add(cur, b.Scalar(0.25))
				})
				return []graph.Output{cur}
			},
			core.WhileOpts{},
		)
	})
	c := mustDevCluster(t, 4, b, []graph.Output{outs[0]}, nil)
	out, err := c.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarValue() != 6 {
		t.Fatalf("got %v, want 6", out[0])
	}
}

func TestDistributedCondDeadnessPropagation(t *testing.T) {
	// The untaken branch's op lives on another device: an is_dead signal
	// must cross the network so the remote Recv is reclaimed (§4.4).
	for _, taken := range []bool{true, false} {
		b := core.NewBuilder()
		var outs []graph.Output
		b.WithDevice("dev:0", func() {
			p := b.Placeholder("p")
			x := b.Scalar(5)
			outs = b.Cond(p,
				func() []graph.Output {
					var r graph.Output
					b.WithDevice("dev:1", func() { r = b.Square(x) })
					// Bring it back to dev:0.
					var back graph.Output
					b.WithDevice("dev:0", func() { back = b.Identity(r) })
					return []graph.Output{back}
				},
				func() []graph.Output { return []graph.Output{b.Neg(x)} },
			)
		})
		c := mustDevCluster(t, 2, b, []graph.Output{outs[0]}, nil)
		out, err := c.Run(map[string]*tensor.Tensor{"p": tensor.ScalarBool(taken)})
		if err != nil {
			t.Fatalf("taken=%v: %v", taken, err)
		}
		want := 25.0
		if !taken {
			want = -5
		}
		if out[0].ScalarValue() != want {
			t.Fatalf("taken=%v: got %v want %v", taken, out[0], want)
		}
	}
}

func TestMultipleStepsReuseCluster(t *testing.T) {
	b := core.NewBuilder()
	var y graph.Output
	b.WithDevice("dev:0", func() {
		x := b.Placeholder("x")
		b.WithDevice("dev:1", func() { y = b.Square(x) })
	})
	c := mustDevCluster(t, 2, b, []graph.Output{y}, nil)
	for i := 1.0; i <= 3; i++ {
		out, err := c.Run(map[string]*tensor.Tensor{"x": tensor.Scalar(i)})
		if err != nil {
			t.Fatal(err)
		}
		if out[0].ScalarValue() != i*i {
			t.Fatalf("step %v: got %v", i, out[0])
		}
	}
}

func TestVariablesAcrossDistributedSteps(t *testing.T) {
	// The variable lives on dev:0; its value is read back through dev:1.
	b := core.NewBuilder()
	var read graph.Output
	var incNode *graph.Node
	b.WithDevice("dev:0", func() {
		b.Variable("w", tensor.Scalar(0))
		incNode = b.OpNode("AssignAdd", "", map[string]any{"var": "w"}, b.Scalar(1))
		read = b.ReadVariable("w")
	})
	b.WithDevice("dev:1", func() { read = b.Identity(read) })
	c := mustDevCluster(t, 2, b, []graph.Output{read}, []*graph.Node{incNode})
	if err := c.RestoreState(map[string]*tensor.Tensor{"w": tensor.Scalar(0)}); err != nil {
		t.Fatal(err)
	}
	// Each step increments and reads; the read must see the update since
	// pruning keeps both and variables are session-shared. Note the read
	// and the increment race within a step (no control edge), so just
	// check monotone growth across steps.
	var last float64 = -1
	for i := 0; i < 3; i++ {
		out, err := c.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].ScalarValue() < last {
			t.Fatalf("variable went backwards: %v -> %v", last, out[0])
		}
		last = out[0].ScalarValue()
	}
	if last < 2 {
		t.Fatalf("after 3 increments the read saw %v, want >= 2", last)
	}
}

func TestNestedCrossDeviceLoopRejected(t *testing.T) {
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("dev:0", func() {
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(2)) },
			func(v []graph.Output) []graph.Output {
				inner := b.While(
					[]graph.Output{v[0]},
					func(iv []graph.Output) graph.Output { return b.Less(iv[0], b.Scalar(3)) },
					func(iv []graph.Output) []graph.Output {
						var r graph.Output
						b.WithDevice("dev:1", func() { r = b.Add(iv[0], b.Scalar(1)) })
						return []graph.Output{r}
					},
					core.WhileOpts{Name: "inner"},
				)
				return []graph.Output{inner[0]}
			},
			core.WhileOpts{},
		)
	})
	_, err := newDevCluster(t, 2, b, []graph.Output{outs[0]}, nil)
	if err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("want nested-loop rejection, got %v", err)
	}
}

func TestCrossDeviceControlEdgeRouted(t *testing.T) {
	// A control edge across devices is rewritten through a Send/Recv of
	// the source's data output.
	b := core.NewBuilder()
	var a, c2 *graph.Node
	b.WithDevice("dev:0", func() {
		a = b.OpNode("Const", "", map[string]any{"value": tensor.Scalar(1)})
	})
	b.WithDevice("dev:1", func() {
		c2 = b.OpNode("Const", "", map[string]any{"value": tensor.Scalar(2)})
	})
	c2.AddControlInput(a)
	c := mustDevCluster(t, 2, b, []graph.Output{c2.Out(0)}, nil)
	out, err := c.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarValue() != 2 {
		t.Fatalf("got %v", out[0])
	}
}

func TestControlEdgeFromNoOpRejected(t *testing.T) {
	b := core.NewBuilder()
	var a, c2 *graph.Node
	b.WithDevice("dev:0", func() {
		a = b.OpNode("NoOp", "", nil)
	})
	b.WithDevice("dev:1", func() {
		c2 = b.OpNode("Const", "", map[string]any{"value": tensor.Scalar(2)})
	})
	c2.AddControlInput(a)
	_, err := newDevCluster(t, 2, b, []graph.Output{c2.Out(0)}, nil)
	if err == nil || !strings.Contains(err.Error(), "no data output") {
		t.Fatalf("want no-data-output rejection, got %v", err)
	}
}

// TestNewClusterReturnsPartitionDiagnostics: a Recv whose key no Send
// publishes passes partitioning and every worker's own partial check, but
// would block its step forever. Fleet.NewCluster verifies the whole
// partitioned program first and returns the diagnostic instead of
// registering the graph.
func TestNewClusterReturnsPartitionDiagnostics(t *testing.T) {
	b := core.NewBuilder()
	var y graph.Output
	b.WithDevice("dev:0", func() {
		r := b.OpNode("Recv", "orphan", map[string]any{"key": "e=nowhere:0"})
		y = b.Identity(r.Out(0))
	})
	_, err := newDevCluster(t, 1, b, []graph.Output{y}, nil)
	var ds verify.Diagnostics
	if !errors.As(err, &ds) {
		t.Fatalf("want verify diagnostics, got %v", err)
	}
	if ds[0].Code != "recv-unpaired" || ds[0].Node != "orphan" {
		t.Fatalf("want recv-unpaired on node orphan, got %v", ds)
	}
}

// TestDistributedGradientLoop differentiates a while-loop whose body spans
// two devices and runs the result on the cluster: the forward loop, its
// state-saving stack pushes, and the gradient loop are all partitioned,
// with control-loop state machines driving each participant (§4.4 + §5.1
// combined — "these subgraphs can also be partitioned and executed on a
// set of heterogeneous devices"). Both devices live on one worker: the
// gradient stacks are created on dev:0 and pushed on dev:1, and a resource
// handle cannot leave its worker process.
func TestDistributedGradientLoop(t *testing.T) {
	build := func(multiDevice bool) (*core.Builder, graph.Output) {
		b := core.NewBuilder()
		devBody := "dev:0"
		if multiDevice {
			devBody = "dev:1"
		}
		var x, y graph.Output
		b.WithDevice("dev:0", func() {
			x = b.Placeholder("x")
			w := b.Const(tensor.FromFloats([]float64{0.5, 0.1, -0.2, 0.8}, 2, 2))
			outs := b.While(
				[]graph.Output{b.Scalar(0), x},
				func(v []graph.Output) graph.Output { return b.Less(v[0], b.Scalar(3)) },
				func(v []graph.Output) []graph.Output {
					var next graph.Output
					b.WithDevice(devBody, func() {
						next = b.Tanh(b.MatMul(v[1], w))
					})
					return []graph.Output{b.Add(v[0], b.Scalar(1)), next}
				},
				core.WhileOpts{},
			)
			y = b.ReduceSum(outs[1], nil, false)
		})
		grads, err := autodiff.Gradients(b, y, []graph.Output{x}, autodiff.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return b, grads[0]
	}

	feed := map[string]*tensor.Tensor{"x": tensor.FromFloats([]float64{1, 2, 3, 4}, 2, 2)}

	// Reference: everything on one device, in a local session.
	bRef, gRef := build(false)
	ref, err := core.NewSession(bRef).Run1(feed, gRef)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: body (and its gradient ops, colocated) on dev:1.
	bDist, gDist := build(true)
	c := mustDevCluster(t, 1, bDist, []graph.Output{gDist}, nil)
	got, err := c.Run(feed)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got[0], ref, 1e-9) {
		t.Fatalf("distributed gradient differs:\n got %v\nwant %v", got[0], ref)
	}
}

// TestClusterRunCtxCancel cancels a cross-device while loop far too long to
// finish: every partition must stop promptly (the loop driver via the
// dispatcher's cancel poll, the body partition via the rendezvous abort),
// RunCtx must report context.Canceled, and no goroutine may outlive the
// step on the driver or on either worker daemon.
func TestClusterRunCtxCancel(t *testing.T) {
	b := core.NewBuilder()
	var outs []graph.Output
	b.WithDevice("dev:0", func() {
		limit := b.Placeholder("limit")
		outs = b.While(
			[]graph.Output{b.Scalar(0)},
			func(v []graph.Output) graph.Output { return b.Less(v[0], limit) },
			func(v []graph.Output) []graph.Output {
				var r graph.Output
				b.WithDevice("dev:1", func() {
					r = b.Add(v[0], b.Scalar(1))
				})
				return []graph.Output{r}
			},
			core.WhileOpts{},
		)
	})
	c := mustDevCluster(t, 2, b, []graph.Output{outs[0]}, nil)
	// A short warm step opens the data-plane connections, so the baseline
	// counts every long-lived goroutine of the fleet.
	if _, err := c.Run(map[string]*tensor.Tensor{"limit": tensor.Scalar(3)}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.RunCtx(ctx, map[string]*tensor.Tensor{"limit": tensor.Scalar(1e12)})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // dcfvet:allow testsleep=stage the step mid-flight before cancel
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cluster step did not return after cancel")
	}
	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count settles back to (near)
// the baseline, failing if canceled executors leaked workers.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancel: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
