package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/dcf"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model sizes. The MLP is the batched-serving model of internal/bench's
// batchserve experiment; the LSTM matches the dynamic-RNN training step the
// issue measured (B=32, In=32, H=64); the dist-loop state is one [8,64]
// tensor per loop iteration.
const (
	mlpWidth  = 16
	mlpLayers = 6
	mlpOut    = 4

	lstmBatch = 32
	lstmIn    = 32
	lstmUnits = 64
	lstmMinT  = 16
	lstmMaxT  = 64
	lstmTBins = 7 // of 7 lengths each
	lstmLR    = 0.01

	distRows     = 8
	distCols     = 64
	distMaxTrips = 32
	distTripBins = 8 // of 4 trip counts each
)

// buildMLP adds the serving MLP to g: mlpLayers tanh(h@W) layers over a
// [rows, mlpWidth] feed "x", then a linear head. The weights are constants
// fixed across seeds: the model is read-only and the same for every run.
func buildMLP(g *dcf.Graph) dcf.Tensor {
	h := g.PlaceholderTyped("x", dcf.Float, -1, mlpWidth)
	for l := 0; l < mlpLayers; l++ {
		h = h.MatMul(g.Const(dcf.RandNormal(uint64(l+1), 0, 0.3, mlpWidth, mlpWidth))).Tanh()
	}
	return h.MatMul(g.Const(dcf.RandNormal(mlpLayers+1, 0, 0.3, mlpWidth, mlpOut)))
}

// lstmModel is the training graph: a DynamicRNN over feed "x" [T, B, In]
// whose while-loop trip count is T, the loss mean(outputs²), and one SGD
// step on the cell's variables.
type lstmModel struct {
	g    *dcf.Graph
	loss dcf.Tensor
	step dcf.Op
}

func buildLSTM(seed uint64) (*lstmModel, error) {
	g := dcf.NewGraph()
	cell := nn.NewLSTMCell(g, "lstm", lstmIn, lstmUnits, seed)
	x := g.Placeholder("x")
	h0 := g.Const(dcf.Zeros(lstmBatch, lstmUnits))
	c0 := g.Const(dcf.Zeros(lstmBatch, lstmUnits))
	r := nn.DynamicRNN(g, cell, x, h0, c0, dcf.WhileOpts{})
	loss := r.Outputs.Square().ReduceMean(nil, false)
	step, err := nn.SGDStep(g, loss, &cell.Vars, lstmLR, false)
	if err != nil {
		return nil, err
	}
	return &lstmModel{g: g, loss: loss, step: step}, g.Err()
}

// buildDistLoop adds the partitioned loop to g: a while-loop driven on
// worker w0 over feed "x" [distRows, distCols] for "limit" iterations. Each
// iteration hands the state to w1, which computes tanh(state@W), and takes
// the result back: two cross-worker transfers per iteration.
func buildDistLoop(g *dcf.Graph, w0, w1 string) dcf.Tensor {
	var out dcf.Tensor
	g.WithDevice(w0+"/cpu", func() {
		x := g.Placeholder("x")
		limit := g.Placeholder("limit")
		outs := g.While(
			[]dcf.Tensor{g.Scalar(0), x},
			func(v []dcf.Tensor) dcf.Tensor { return v[0].Less(limit) },
			func(v []dcf.Tensor) []dcf.Tensor {
				var s dcf.Tensor
				g.WithDevice(w1+"/cpu", func() {
					w := g.Const(dcf.RandNormal(7, 0, 1/math.Sqrt(distCols), distCols, distCols))
					s = v[1].MatMul(w).Tanh()
				})
				return []dcf.Tensor{v[0].Add(g.Scalar(1)), s}
			},
			dcf.WhileOpts{Name: "distloop"},
		)
		out = outs[1]
	})
	return out
}

// sizes returns an endless seeded sequence of sizes drawn uniformly from
// lo..hi. The range is cut into bins of equal width; each pass visits every
// bin once, in a shuffled order, and draws a size uniformly inside it. Every
// stretch of a few passes then holds the same mix of sizes whatever the
// seed, so a seed changes which size comes when, not how many of each a run
// holds.
func sizes(r *rand.Rand, lo, hi, bins int) func() int {
	width := (hi - lo + 1) / bins
	var order []int
	return func() int {
		if len(order) == 0 {
			order = r.Perm(bins)
		}
		b := order[0]
		order = order[1:]
		return lo + b*width + r.IntN(width)
	}
}

// normal returns a seeded standard-normal tensor of the given shape.
func normal(r *rand.Rand, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	f := make([]float64, n)
	for i := range f {
		f[i] = r.NormFloat64()
	}
	return tensor.FromFloats(f, shape...)
}

// sameBits reports whether got matches want bit for bit, shape included.
func sameBits(got, want *tensor.Tensor) error {
	if got == nil {
		return fmt.Errorf("nil output")
	}
	gs, ws := got.ShapeRef(), want.ShapeRef()
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		return fmt.Errorf("shape %v, want %v", gs, ws)
	}
	for i := range want.F {
		if math.Float64bits(got.F[i]) != math.Float64bits(want.F[i]) {
			return fmt.Errorf("element %d is %v, want %v", i, got.F[i], want.F[i])
		}
	}
	return nil
}
