package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/dcf"
	"repro/internal/cluster"
	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// distInputs is the number of seeded loop states dist-loop steps start
// from. distWindow is the shortest window of a dist-loop phase: long enough
// for several hundred steps, more than a p90 needs.
const (
	distInputs = 4
	distWindow = 2 * time.Second
)

// distFixture is dist-loop: the partitioned while-loop on two cluster.Worker
// daemons on loopback TCP, stepped by one caller through TCPCluster.RunCtx.
// No fabric latency is injected: TCPOptions.Latency sleeps, so it would
// measure timer granularity instead of the transport. rendezvous.hop_us
// reports the per-hop time the loopback transport achieves.
type distFixture struct {
	seed    uint64
	daemons []*cluster.Worker
	fleet   *distrib.Fleet
	tc      *distrib.TCPCluster
	inputs  []*tensor.Tensor
	want    [][]*tensor.Tensor // want[input][trips]
	bad     corrupter
}

// distWorkers names dist-loop's worker daemons; the loop is driven on the
// first.
var distWorkers = [2]string{"dw0", "dw1"}

func setupDist(ctx context.Context, seed uint64) (fixture, error) {
	fx := &distFixture{seed: seed}
	var addrs []string
	for _, name := range distWorkers {
		d, err := cluster.NewWorker(name, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.daemons = append(fx.daemons, d)
		addrs = append(addrs, d.Addr())
	}
	f, err := distrib.Dial(addrs...)
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.fleet = f
	g := dcf.NewGraph()
	out := buildDistLoop(g, distWorkers[0], distWorkers[1])
	if err := g.Err(); err != nil {
		fx.close()
		return nil, err
	}
	tc, err := f.NewCluster(g.Builder(), []graph.Output{out.Output()}, nil, distrib.TCPOptions{})
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.tc = tc
	if _, err := tc.RunCtx(ctx, distFeeds(tensor.Zeros(distRows, distCols), 2)); err != nil {
		fx.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return fx, nil
}

func distFeeds(x *tensor.Tensor, trips int) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"x": x, "limit": tensor.Scalar(float64(trips))}
}

// localDistSession builds the dist-loop graph in one in-process session.
func localDistSession() (*dcf.Session, dcf.Tensor, error) {
	g := dcf.NewGraph()
	out := buildDistLoop(g, distWorkers[0], distWorkers[1])
	return dcf.NewSession(g), out, g.Err()
}

// prepare computes every fetch dist-loop can ask for (each input at every
// trip count) by running the same graph in one in-process session.
func (fx *distFixture) prepare(ctx context.Context) error {
	r := rand.New(rand.NewPCG(fx.seed, 0xd157))
	sess, out, err := localDistSession()
	if err != nil {
		return err
	}
	for i := 0; i < distInputs; i++ {
		x := normal(r, distRows, distCols)
		fx.inputs = append(fx.inputs, x)
		var row []*tensor.Tensor
		for trips := 0; trips <= distMaxTrips; trips++ {
			v, err := sess.Run1(distFeeds(x, trips), out)
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			row = append(row, v)
		}
		fx.want = append(fx.want, row)
	}
	return nil
}

// distStep is one measured step.
type distStep struct {
	trips int
	dur   time.Duration
}

// distObs is the cluster view of a dist-loop phase.
type distObs struct {
	steps []distStep
}

// iterSlope fits step time against trip count by least squares and
// returns the time per loop iteration.
func iterSlope(steps []distStep) time.Duration {
	var n, sx, sy, sxx, sxy float64
	for _, s := range steps {
		x, y := float64(s.trips), float64(s.dur)
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return time.Duration((n*sxy - sx*sy) / den)
}

func (fx *distFixture) measure(ctx context.Context, d time.Duration, sp *spans) (*phase, error) {
	r := rand.New(rand.NewPCG(fx.seed, 0x5eed))
	nextTrips := sizes(r, 1, distMaxTrips, distTripBins)
	ph := startPhase()
	obs := &distObs{}
	nWin := max(1, int(d/distWindow))
	for i := 0; i < nWin; i++ {
		var w window
		var busy time.Duration
		deadline := time.Now().Add(d / time.Duration(nWin))
		for time.Now().Before(deadline) {
			trips, in := nextTrips(), r.IntN(distInputs)
			id := sp.id()
			start := time.Now()
			vals, err := fx.tc.RunCtx(ctx, distFeeds(fx.inputs[in], trips))
			el := time.Since(start)
			sp.record("caller", "TCPCluster.RunCtx", "step", id, start, start.Add(el))
			busy += el
			if err != nil {
				ph.t.add(erred, err)
				continue
			}
			if len(vals) != 1 {
				err = fmt.Errorf("%d fetches, want 1", len(vals))
			} else {
				err = sameBits(fx.bad.spoil(vals[0]), fx.want[in][trips])
			}
			if err != nil {
				ph.t.add(wrongOut, fmt.Errorf("step of %d trips: %w", trips, err))
				continue
			}
			ph.t.add(answered, nil)
			w.work += float64(trips)
			w.lat = append(w.lat, el)
			obs.steps = append(obs.steps, distStep{trips, el})
		}
		w.workSec = busy.Seconds()
		ph.addWindow(w)
	}
	ph.finish()
	ph.dist = obs
	return ph, nil
}

// sendsPerStep runs one traced step of the given trip count and counts the
// Send/Recv transfers in its merged timeline.
func (fx *distFixture) sendsPerStep(ctx context.Context, trips int) (int, error) {
	_, js, err := fx.tc.RunTraced(ctx, distFeeds(fx.inputs[0], trips))
	if err != nil {
		return 0, err
	}
	var tr struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &tr); err != nil {
		return 0, err
	}
	n := 0
	for _, e := range tr.TraceEvents {
		if e.Ph == "s" {
			n++
		}
	}
	return n, nil
}

func (fx *distFixture) close() {
	if fx.tc != nil {
		fx.tc.Close()
	}
	if fx.fleet != nil {
		fx.fleet.Close()
	}
	for _, d := range fx.daemons {
		d.Close()
	}
}
