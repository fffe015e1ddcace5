package bench

import (
	"fmt"
	"io"

	"repro/dcf"
)

// Ablation benchmarks for design choices DESIGN.md calls out: the cost of
// deadness propagation on rarely-taken branches (§4.4), stack push/pop with
// and without asynchronous swapping (§5.3), and the dynamic-tag executor
// overhead on control-flow-free graphs (the fixed cost behind Figure 14's
// 3–8%).

// AblationDeadness measures conditional dispatch cost as the untaken branch
// grows: the taken branch is one op; the untaken branch is a chain of
// `chainLen` ops that execute only as dead-token propagation.
func AblationDeadness(chainLen, steps int, w io.Writer) (perStepUs float64, err error) {
	g := dcf.NewGraph()
	p := g.Placeholder("p")
	x := g.Scalar(1)
	outs := g.Cond(p,
		func() []dcf.Tensor { return []dcf.Tensor{x.Neg()} },
		func() []dcf.Tensor {
			cur := x
			for i := 0; i < chainLen; i++ {
				cur = cur.Add(g.Scalar(1))
			}
			return []dcf.Tensor{cur}
		},
	)
	if err := g.Err(); err != nil {
		return 0, err
	}
	sess := dcf.NewSession(g)
	feeds := dcf.Feeds{"p": dcf.ScalarBool(true)} // false branch always dead
	if _, err := sess.Run1(feeds, outs[0]); err != nil {
		return 0, err
	}
	d, err := timeIt(func() error {
		for i := 0; i < steps; i++ {
			if _, err := sess.Run1(feeds, outs[0]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	us := d.Seconds() * 1e6 / float64(steps)
	fprintf(w, "deadness ablation: untaken chain %4d ops -> %8.1f us/step\n", chainLen, us)
	return us, nil
}

// AblationTagOverhead measures executor time per op on a control-flow-free
// chain — the dynamic-tag bookkeeping every op pays even without loops
// (§4.3: "each tensor is represented as a tuple (value, is_dead, tag)").
func AblationTagOverhead(chainLen, steps int, w io.Writer) (perOpNs float64, err error) {
	g := dcf.NewGraph()
	cur := g.Scalar(1)
	for i := 0; i < chainLen; i++ {
		cur = cur.Add(g.Scalar(1))
	}
	sess := dcf.NewSession(g)
	if _, err := sess.Run1(nil, cur); err != nil {
		return 0, err
	}
	d, err := timeIt(func() error {
		for i := 0; i < steps; i++ {
			if _, err := sess.Run1(nil, cur); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	ns := d.Seconds() * 1e9 / float64(steps) / float64(2*chainLen+1)
	fprintf(w, "tag-overhead ablation: %d-op chain -> %.0f ns/op dispatch\n", chainLen, ns)
	return ns, nil
}

// AblationStackSwap measures a loop that saves large per-iteration tensors
// for backprop, with swapping off versus on, isolating §5.3's overlap from
// Table 1's end-to-end view. Returns (off, on) seconds.
func AblationStackSwap(iters, dim int, w io.Writer) (offSec, onSec float64, err error) {
	run := func(swap bool) (float64, error) {
		g := dcf.NewGraph()
		var w0, loss dcf.Tensor
		g.WithDevice("gpu:0", func() {
			w0 = g.Variable("w", dcf.RandNormal(1, 0, 0.05, dim, dim))
			x := g.Placeholder("x")
			outs := g.While(
				[]dcf.Tensor{g.Scalar(0), x},
				func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(g.Scalar(float64(iters))) },
				func(v []dcf.Tensor) []dcf.Tensor {
					return []dcf.Tensor{v[0].Add(g.Scalar(1)), v[1].MatMul(w0).Tanh()}
				},
				dcf.WhileOpts{},
			)
			loss = outs[1].Square().ReduceSum()
		})
		grads, err := g.Gradients(loss, []dcf.Tensor{w0}, dcf.GradOptions{SwapMemory: swap})
		if err != nil {
			return 0, err
		}
		sess := dcf.NewSessionOpts(g, dcf.SessionOptions{
			Devices: []dcf.DeviceConfig{{Name: "gpu:0", CopyBandwidth: 20e9}},
		})
		defer sess.Close()
		if err := sess.InitVariables(); err != nil {
			return 0, err
		}
		feeds := dcf.Feeds{"x": dcf.RandNormal(2, 0, 1, 8, dim)}
		if _, err := sess.Run1(feeds, grads[0]); err != nil {
			return 0, err
		}
		d, err := timeIt(func() error {
			_, err := sess.Run1(feeds, grads[0])
			return err
		})
		return d.Seconds(), err
	}
	offSec, err = run(false)
	if err != nil {
		return 0, 0, fmt.Errorf("swap off: %w", err)
	}
	onSec, err = run(true)
	if err != nil {
		return 0, 0, fmt.Errorf("swap on: %w", err)
	}
	fprintf(w, "stack-swap ablation (%d iters of %dx%d): off %.4fs, on %.4fs (overhead %+.1f%%)\n",
		iters, dim, dim, offSec, onSec, (onSec/offSec-1)*100)
	return offSec, onSec, nil
}
