package bench

import (
	"fmt"
	"io"
	"time"

	"repro/dcf"
	"repro/internal/nn"
)

// The §6.5 application: Deep Q-Networks with an in-graph experience
// database, in-graph conditional action selection (explore vs exploit),
// per-interaction Q-learning, and conditional target-network updates —
// fused into a single dataflow graph invoked once per environment
// interaction. The baseline drives the same logic from the client, one
// Session.Run per stage, as an out-of-graph implementation must. The paper
// reports a 21% speedup for the in-graph version.

// DQNConfig parameterizes the experiment.
type DQNConfig struct {
	StateDim    int
	Actions     int
	Hidden      int
	ReplayCap   int
	Batch       int
	Eps         float64
	Gamma       float64
	LR          float64
	TargetEvery int
	Steps       int // interactions per measured run
	// RunOverhead models the client-runtime boundary each Session.Run
	// crosses in the paper's deployment; both implementations pay it
	// (the in-graph version once per interaction, the out-of-graph one
	// per stage). See dcf.SessionOptions.RunOverhead.
	RunOverhead time.Duration
}

// DefaultDQN returns the experiment configuration.
func DefaultDQN(quick bool) DQNConfig {
	cfg := DQNConfig{
		StateDim:    8,
		Actions:     4,
		Hidden:      64,
		ReplayCap:   256,
		Batch:       64,
		Eps:         0.1,
		Gamma:       0.95,
		LR:          0.01,
		TargetEvery: 10,
		Steps:       300,
		RunOverhead: 100 * time.Microsecond,
	}
	if quick {
		cfg.Steps = 60
	}
	return cfg
}

// DQNResult compares the two implementations.
type DQNResult struct {
	InGraphIPS    float64 // interactions per second
	OutOfGraphIPS float64
	SpeedupPct    float64
}

// qNetwork declares a two-layer Q network with a variable-name prefix.
func qNetwork(g *dcf.Graph, prefix string, cfg DQNConfig, seed uint64) (*nn.Dense, *nn.Dense, *nn.VarSet) {
	l1 := nn.NewDense(g, prefix+"/l1", cfg.StateDim, cfg.Hidden,
		func(t dcf.Tensor) dcf.Tensor { return t.Tanh() }, seed)
	l2 := nn.NewDense(g, prefix+"/l2", cfg.Hidden, cfg.Actions, nil, seed+10)
	vs := &nn.VarSet{}
	vs.Merge(&l1.Vars)
	vs.Merge(&l2.Vars)
	return l1, l2, vs
}

func applyQ(l1, l2 *nn.Dense, s dcf.Tensor) dcf.Tensor { return l2.Apply(l1.Apply(s)) }

// envStep computes the synthetic environment's transition and reward:
// ns = tanh([s, onehot(a)] We), r = onehot(a)·(s Wr) — deterministic given
// fixed random matrices; the closest in-graph equivalent of the paper's
// game environments (see DESIGN.md §1).
func envStep(g *dcf.Graph, cfg DQNConfig, s, aOne dcf.Tensor) (ns, r dcf.Tensor) {
	we := g.Const(dcf.RandNormal(101, 0, 0.4, cfg.StateDim+cfg.Actions, cfg.StateDim))
	wr := g.Const(dcf.RandNormal(102, 0, 0.6, cfg.StateDim, cfg.Actions))
	inp := dcf.Concat(1, s, aOne)
	ns = inp.MatMul(we).Tanh()
	r = aOne.Mul(s.MatMul(wr)).ReduceSum().Reshape(1, 1)
	return ns, r
}

// rowDim is the replay-record width: state, action one-hot, reward, next
// state.
func rowDim(cfg DQNConfig) int { return 2*cfg.StateDim + cfg.Actions + 1 }

// declareDQNState declares the replay database and step counter.
func declareDQNState(g *dcf.Graph, cfg DQNConfig) {
	g.Variable("replay", dcf.Zeros(cfg.ReplayCap, rowDim(cfg)))
	g.Variable("step", dcf.ScalarVal(0))
}

// buildTrainTail builds the Q-learning update from a sampled batch, given
// the read of the replay variable to use (so callers can order it after the
// write). Returns the train op.
func buildTrainTail(g *dcf.Graph, cfg DQNConfig, m1, m2, t1, t2 *nn.Dense, mainVars *nn.VarSet, replayRead, stepV dcf.Tensor) (dcf.Op, error) {
	limit := stepV.Add(g.Scalar(1)).Minimum(g.Scalar(float64(cfg.ReplayCap)))
	ixs := g.RandomUniformOp(cfg.Batch).Mul(limit).Cast(dcf.Int)
	rows := replayRead.Gather(ixs)
	sB := rows.SliceCols(0, cfg.StateDim)
	aB := rows.SliceCols(cfg.StateDim, cfg.Actions)
	rB := rows.SliceCols(cfg.StateDim+cfg.Actions, 1).Squeeze(1)
	nsB := rows.SliceCols(cfg.StateDim+cfg.Actions+1, cfg.StateDim)
	qNext := applyQ(t1, t2, nsB).ReduceMax([]int{1}, false)
	targetQ := rB.Add(qNext.Mul(g.Scalar(cfg.Gamma))).StopGradient()
	predQ := applyQ(m1, m2, sB).Mul(aB).ReduceSumAxes([]int{1}, false)
	loss := nn.MSE(predQ, targetQ)
	return nn.SGDStep(g, loss, mainVars, cfg.LR, false)
}

// targetSync copies main-network variables into the target network,
// returning a tensor that materializes only when executed (for use inside a
// cond branch).
func targetSync(g *dcf.Graph, mainVars, targetVars *nn.VarSet) dcf.Tensor {
	var acc dcf.Tensor
	for i, name := range targetVars.Names {
		out := g.AssignT(name, mainVars.Reads[i]).ReduceSum()
		if i == 0 {
			acc = out
		} else {
			acc = acc.Add(out)
		}
	}
	return acc
}

// runInGraphDQN builds the fused graph and measures one Session.Run per
// interaction.
func runInGraphDQN(cfg DQNConfig) (float64, error) {
	g := dcf.NewGraph()
	m1, m2, mainVars := qNetwork(g, "main", cfg, 1)
	t1, t2, targetVars := qNetwork(g, "target", cfg, 1)
	declareDQNState(g, cfg)

	s := g.Placeholder("state")
	stepV := g.ReadVariable("step")

	// Conditional explore/exploit action selection.
	qs := applyQ(m1, m2, s)
	explore := g.RandomUniformOp(1).Less(g.Scalar(cfg.Eps))
	action := g.Cond(explore,
		func() []dcf.Tensor {
			return []dcf.Tensor{g.RandomUniformOp(1).Mul(g.Scalar(float64(cfg.Actions))).Cast(dcf.Int)}
		},
		func() []dcf.Tensor { return []dcf.Tensor{qs.ArgMax(1)} },
	)[0]
	aOne := action.OneHot(cfg.Actions)

	// Environment transition and replay write.
	ns, r := envStep(g, cfg, s, aOne)
	slot := stepV.Mod(g.Scalar(float64(cfg.ReplayCap))).Cast(dcf.Int).Reshape(1)
	record := dcf.Concat(1, s, aOne, r, ns)
	write := g.ScatterUpdate("replay", slot, record)

	// Q-learning over a batch sampled after this step's write.
	replayRead := g.ReadVariable("replay").After(write)
	trainOp, err := buildTrainTail(g, cfg, m1, m2, t1, t2, mainVars, replayRead, stepV)
	if err != nil {
		return 0, err
	}

	// Conditional target sync every TargetEvery interactions.
	due := stepV.Mod(g.Scalar(float64(cfg.TargetEvery))).Equal(g.Scalar(0))
	sync := g.Cond(due,
		func() []dcf.Tensor { return []dcf.Tensor{targetSync(g, mainVars, targetVars)} },
		func() []dcf.Tensor { return []dcf.Tensor{g.Scalar(0)} },
	)[0]

	inc := g.AssignAdd("step", g.Scalar(1))
	stepOp := g.Group(write, trainOp, sync.Op(), inc)
	if err := g.Err(); err != nil {
		return 0, err
	}

	sess := dcf.NewSessionOpts(g, dcf.SessionOptions{RunOverhead: cfg.RunOverhead})
	if err := sess.InitVariables(); err != nil {
		return 0, err
	}
	state := dcf.RandNormal(5, 0, 1, 1, cfg.StateDim)
	// Warm-up.
	if _, err := sess.Run(dcf.Feeds{"state": state}, []dcf.Tensor{ns}, stepOp); err != nil {
		return 0, err
	}
	d, err := timeIt(func() error {
		cur := state
		for i := 0; i < cfg.Steps; i++ {
			out, err := sess.Run(dcf.Feeds{"state": cur}, []dcf.Tensor{ns}, stepOp)
			if err != nil {
				return err
			}
			cur = out[0]
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(cfg.Steps) / d.Seconds(), nil
}

// runOutOfGraphDQN drives the same logic from the client: one Session.Run
// per stage (action scores, environment, replay write, train, target sync),
// with the conditionals decided in Go.
func runOutOfGraphDQN(cfg DQNConfig) (float64, error) {
	g := dcf.NewGraph()
	m1, m2, mainVars := qNetwork(g, "main", cfg, 1)
	t1, t2, targetVars := qNetwork(g, "target", cfg, 1)
	declareDQNState(g, cfg)

	s := g.Placeholder("state")
	qs := applyQ(m1, m2, s)

	aIn := g.Placeholder("action")
	aOne := aIn.OneHot(cfg.Actions)
	ns, r := envStep(g, cfg, s, aOne)
	record := dcf.Concat(1, s, aOne, r, ns)
	slotIn := g.Placeholder("slot")
	write := g.ScatterUpdate("replay", slotIn, record)

	stepV := g.ReadVariable("step")
	trainOp, err := buildTrainTail(g, cfg, m1, m2, t1, t2, mainVars, g.ReadVariable("replay"), stepV)
	if err != nil {
		return 0, err
	}
	inc := g.AssignAdd("step", g.Scalar(1))
	syncT := targetSync(g, mainVars, targetVars)
	if err := g.Err(); err != nil {
		return 0, err
	}

	sess := dcf.NewSessionOpts(g, dcf.SessionOptions{RunOverhead: cfg.RunOverhead})
	if err := sess.InitVariables(); err != nil {
		return 0, err
	}
	rng := newClientRNG(5)
	state := dcf.RandNormal(5, 0, 1, 1, cfg.StateDim)

	interact := func(step int, cur *dcf.Value) (*dcf.Value, error) {
		// Stage 1: action scores.
		out, err := sess.Run(dcf.Feeds{"state": cur}, []dcf.Tensor{qs})
		if err != nil {
			return nil, err
		}
		// Client-side eps-greedy.
		var a int64
		if rng.Float64() < cfg.Eps {
			a = int64(rng.Intn(cfg.Actions))
		} else {
			best := out[0].F[0]
			for i, v := range out[0].F {
				if v > best {
					best = v
					a = int64(i)
				}
			}
		}
		// Stage 2+3: environment step and replay write.
		feeds := dcf.Feeds{
			"state":  cur,
			"action": dcf.FromInts([]int64{a}, 1),
			"slot":   dcf.FromInts([]int64{int64(step % cfg.ReplayCap)}, 1),
		}
		out, err = sess.Run(feeds, []dcf.Tensor{ns}, write)
		if err != nil {
			return nil, err
		}
		next := out[0]
		// Stage 4: Q-learning update.
		if err := sess.RunTargets(nil, trainOp, inc); err != nil {
			return nil, err
		}
		// Stage 5: conditional target sync, decided client-side.
		if step%cfg.TargetEvery == 0 {
			if _, err := sess.Run(nil, []dcf.Tensor{syncT}); err != nil {
				return nil, err
			}
		}
		return next, nil
	}

	if _, err := interact(0, state); err != nil { // warm-up
		return 0, err
	}
	d, err := timeIt(func() error {
		cur := state
		var err error
		for i := 0; i < cfg.Steps; i++ {
			cur, err = interact(i+1, cur)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(cfg.Steps) / d.Seconds(), nil
}

// newClientRNG is a tiny client-side RNG for the out-of-graph baseline.
type clientRNG struct{ s uint64 }

func newClientRNG(seed uint64) *clientRNG { return &clientRNG{s: seed} }
func (r *clientRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}
func (r *clientRNG) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *clientRNG) Intn(n int) int   { return int(r.next() % uint64(n)) }

// DQN runs both implementations and compares interaction rates.
func DQN(cfg DQNConfig, w io.Writer) (*DQNResult, error) {
	inIPS, err := runInGraphDQN(cfg)
	if err != nil {
		return nil, fmt.Errorf("dqn in-graph: %w", err)
	}
	outIPS, err := runOutOfGraphDQN(cfg)
	if err != nil {
		return nil, fmt.Errorf("dqn out-of-graph: %w", err)
	}
	res := &DQNResult{
		InGraphIPS:    inIPS,
		OutOfGraphIPS: outIPS,
		SpeedupPct:    (inIPS/outIPS - 1) * 100,
	}
	fprintf(w, "DQN (§6.5): in-graph %.0f interactions/s vs out-of-graph %.0f (speedup %.0f%%)\n",
		inIPS, outIPS, res.SpeedupPct)
	return res, nil
}
