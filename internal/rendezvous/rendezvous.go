// Package rendezvous implements the Send/Recv tensor exchange of §3: a
// sender publishes a tensor under a rendezvous key; the receiver pulls it,
// blocking until it has been produced. Keys incorporate the dynamic frame
// tag, so each iteration of a loop produces a distinct key, and is_dead
// signals travel with the payload so deadness propagates across devices
// (§4.4).
//
// Local is an in-process key table with optional simulated network
// latency. Net (net.go) is the transport between worker processes: it
// keeps one Local per step scope, delivers keys addressed to its own worker
// straight into that table, and ships every other key over TCP.
package rendezvous

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
)

// Local is an in-process rendezvous shared by several executors. The zero
// value is not usable; call NewLocal.
type Local struct {
	// Latency is added to every transfer (one-way), modeling the network
	// fabric between machines.
	Latency time.Duration

	mu    sync.Mutex
	slots map[string]*slot
	err   error
	abort chan struct{}
}

type slot struct {
	tok   exec.Token
	full  bool
	ready chan struct{}
}

// NewLocal returns an empty in-process rendezvous.
func NewLocal(latency time.Duration) *Local {
	return &Local{
		Latency: latency,
		slots:   map[string]*slot{},
		abort:   make(chan struct{}),
	}
}

func (l *Local) slotFor(key string) *slot {
	s, ok := l.slots[key]
	if !ok {
		s = &slot{ready: make(chan struct{})}
		l.slots[key] = s
	}
	return s
}

// Send publishes a token under key. Publishing a key twice is an error
// (keys are unique per dynamic edge instance).
func (l *Local) Send(key string, t exec.Token) error {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	s := l.slotFor(key)
	if s.full {
		l.mu.Unlock()
		return fmt.Errorf("rendezvous: duplicate send for key %q", key)
	}
	s.tok = t
	s.full = true
	close(s.ready)
	l.mu.Unlock()
	return nil
}

// Recv blocks until key is published, simulating transfer time, or until
// cancel (or a cluster-wide abort) fires.
func (l *Local) Recv(key string, cancel <-chan struct{}) (exec.Token, error) {
	l.mu.Lock()
	if l.err != nil {
		defer l.mu.Unlock()
		return exec.Token{}, l.err
	}
	s := l.slotFor(key)
	l.mu.Unlock()
	select {
	case <-s.ready:
		// Each key is consumed exactly once; reclaim the slot so long
		// loops do not grow the table without bound.
		l.mu.Lock()
		delete(l.slots, key)
		l.mu.Unlock()
	case <-cancel:
		return exec.Token{}, fmt.Errorf("rendezvous: recv of %q canceled", key)
	case <-l.abort:
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("rendezvous: aborted")
		}
		return exec.Token{}, err
	}
	if l.Latency > 0 {
		select {
		case <-time.After(l.Latency):
		case <-cancel:
			return exec.Token{}, fmt.Errorf("rendezvous: recv of %q canceled", key)
		}
	}
	return s.tok, nil
}

// Abort fails all pending and future operations with err (used when one
// partition's executor dies so its peers do not block forever).
func (l *Local) Abort(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err == nil {
		err = fmt.Errorf("rendezvous: aborted")
	}
	l.err = err
	close(l.abort)
}
