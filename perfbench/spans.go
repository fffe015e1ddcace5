package main

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// maxSpans caps the spans kept in memory: a traced serving run makes
// about a million, and each costs memory the other containers on a small
// host may need. Spans past the cap are counted, not kept.
// maxWrittenSpans caps the span file.
const (
	maxSpans        = 250000
	maxWrittenSpans = 20000
)

// spans records the benchmark's own spans around calls into the program.
// Each operation gets an ID; its span and its children carry it as the
// span's iteration number, so a trace viewer groups one request's spans.
// A nil *spans records nothing.
type spans struct {
	tr  *trace.Tracer
	ids atomic.Int64
	n   atomic.Int64 // spans offered to record
}

func newSpans() *spans { return &spans{tr: trace.New()} }

// id returns a fresh operation ID (0 when s is nil).
func (s *spans) id() int64 {
	if s == nil {
		return 0
	}
	return s.ids.Add(1)
}

// record adds one span: stream is the timeline row, name the public call it
// covers, kind the ID's kind ("req", "batch" or "step").
func (s *spans) record(stream, name, kind string, id int64, start, end time.Time) {
	if s == nil || s.n.Add(1) > maxSpans {
		return
	}
	s.tr.RecordSpan(trace.Event{Stream: stream, Name: name, Op: name, Frame: kind, Iter: int(id)}, start, end)
}

// write stores the spans as Chrome trace-event JSON (Perfetto opens it) and
// returns how many were offered, kept and written.
func (s *spans) write(path string) (offered int64, kept, written int, err error) {
	evs := s.tr.Events()
	offered, kept = s.n.Load(), len(evs)
	if len(evs) > maxWrittenSpans {
		evs = evs[:maxWrittenSpans]
	}
	js, err := trace.MergeChrome([]trace.Part{{PID: 1, Name: "perfbench", Base: s.tr.Base().UnixNano(), Events: evs}})
	if err != nil {
		return offered, kept, 0, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return offered, kept, 0, err
	}
	return offered, kept, len(evs), os.WriteFile(path, js, 0o644)
}
