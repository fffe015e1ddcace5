package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/dcf"
	"repro/internal/tensor"
)

// Training-loss accounting: train_loss is the mean loss of steps
// lossSteps-lossWindow .. lossSteps-1, a fixed seeded stretch of the run, so
// two runs with one seed must report the same value. checkSteps steps are
// replayed on a second, independently set-up session and must give
// bit-identical losses.
const (
	lossSteps  = 40
	lossWindow = 10
	checkSteps = 2
)

// lstmFixture is lstm-train: one caller running training steps back to
// back, each on a fresh seeded batch whose sequence length T sets the
// while-loop's trip count.
type lstmFixture struct {
	seed  uint64
	m     *lstmModel
	sess  *dcf.Session
	nextT func() int
	steps int       // steps run so far
	loss  []float64 // losses of the first lossSteps steps
	ref   []float64 // losses of the replay session's first checkSteps steps
	bad   corrupter
	// lossSteps overrides the package constant in the benchmark's tests.
	lossSteps int
}

func setupLSTM(ctx context.Context, seed uint64) (fixture, error) {
	m, err := buildLSTM(seed)
	if err != nil {
		return nil, err
	}
	sess := dcf.NewSession(m.g)
	if err := sess.InitVariables(); err != nil {
		return nil, err
	}
	fx := &lstmFixture{
		seed:      seed,
		m:         m,
		sess:      sess,
		nextT:     sizes(rand.New(rand.NewPCG(seed, 0x7)), lstmMinT, lstmMaxT, lstmTBins),
		lossSteps: lossSteps,
	}
	// Warm-up compiles the step's plan and fills the buffer pool. It trains
	// on a fixed batch, the same in every session with this seed.
	if _, err := fx.run(ctx, lstmInput(seed, 0, lstmMinT), nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return fx, nil
}

// lstmInput is step k's batch [T, B, In]; k = 0 is the warm-up batch.
func lstmInput(seed uint64, k, T int) *tensor.Tensor {
	return normal(rand.New(rand.NewPCG(seed, uint64(k)+0x100)), T, lstmBatch, lstmIn)
}

// run executes one training step and returns its loss.
func (fx *lstmFixture) run(ctx context.Context, x *tensor.Tensor, sp *spans, id int64) (float64, error) {
	start := time.Now()
	out, _, err := fx.sess.RunCtx(ctx, dcf.RunOptions{
		Feeds:   dcf.Feeds{"x": x},
		Fetches: []dcf.Tensor{fx.m.loss},
		Targets: []dcf.Op{fx.m.step},
	})
	sp.record("caller", "Session.Run", "step", id, start, time.Now())
	if err != nil {
		return 0, err
	}
	return out[0].ScalarValue(), nil
}

// prepare replays the first checkSteps steps on a second session set up
// from the same seed; measure compares the main session's losses with it.
func (fx *lstmFixture) prepare(ctx context.Context) error {
	other, err := setupLSTM(ctx, fx.seed)
	if err != nil {
		return err
	}
	defer other.close()
	o := other.(*lstmFixture)
	for k := 1; k <= checkSteps; k++ {
		loss, err := o.run(ctx, lstmInput(fx.seed, k, o.nextT()), nil, 0)
		if err != nil {
			return fmt.Errorf("replay step %d: %w", k, err)
		}
		fx.ref = append(fx.ref, loss)
	}
	return nil
}

// lstmObs is the training view of a phase.
type lstmObs struct {
	loss float64 // train_loss; NaN until lossSteps steps trained correctly
}

func (fx *lstmFixture) measure(ctx context.Context, d time.Duration, sp *spans) (*phase, error) {
	ph := startPhase()
	var w window
	var busy time.Duration
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || fx.steps < fx.lossSteps {
		fx.steps++
		k := fx.steps
		T := fx.nextT()
		x := lstmInput(fx.seed, k, T)
		start := time.Now()
		loss, err := fx.run(ctx, x, sp, sp.id())
		el := time.Since(start)
		busy += el
		w.lat = append(w.lat, el)
		switch {
		case err != nil:
			ph.t.add(erred, fmt.Errorf("step %d: %w", k, err))
			continue
		case k == 1 && fx.bad.n.Add(-1) >= 0:
			loss = math.NaN()
		}
		wrong := math.IsNaN(loss) || math.IsInf(loss, 0)
		if k <= len(fx.ref) && math.Float64bits(loss) != math.Float64bits(fx.ref[k-1]) {
			wrong = true
		}
		if wrong {
			ph.t.add(wrongOut, fmt.Errorf("step %d: loss %v (replayed: %v)", k, loss, fx.ref))
			continue
		}
		ph.t.add(answered, nil)
		w.work += float64(lstmBatch * T)
		if k <= fx.lossSteps {
			fx.loss = append(fx.loss, loss)
		}
	}
	// A run holds about a hundred steps, too few to split into windows
	// that each support a p90.
	w.workSec = busy.Seconds()
	ph.addWindow(w)
	ph.finish()
	obs := &lstmObs{loss: math.NaN()}
	if n := len(fx.loss); n == fx.lossSteps {
		w := fx.loss[n-min(lossWindow, n):]
		sum := 0.0
		for _, l := range w {
			sum += l
		}
		obs.loss = sum / float64(len(w))
	}
	ph.lstm = obs
	return ph, nil
}

func (fx *lstmFixture) close() {}
