package stack

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// memStub implements ops.DeviceMem with immediate transfers.
type memStub struct {
	mu       sync.Mutex
	used     int64
	capacity int64
	swapOuts int
	swapIns  int
}

func (m *memStub) MemName() string { return "stub" }
func (m *memStub) Allocate(b int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.capacity > 0 && m.used+b > m.capacity {
		return errors.New("stub: out of memory")
	}
	m.used += b
	return nil
}
func (m *memStub) Release(b int64) {
	m.mu.Lock()
	m.used -= b
	m.mu.Unlock()
}
func (m *memStub) SwapOut(b int64, done func()) {
	m.mu.Lock()
	m.swapOuts++
	m.mu.Unlock()
	done()
}
func (m *memStub) SwapIn(b int64, done func()) {
	m.mu.Lock()
	m.swapIns++
	m.mu.Unlock()
	done()
}
func (m *memStub) UsedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}
func (m *memStub) CapacityBytes() int64 { return m.capacity }

func val(v float64) ops.Value { return ops.TensorVal(tensor.Full(v, 1024)) } // 8KB, above MinSwapBytes

func TestPushPopLIFO(t *testing.T) {
	s := New("s", false)
	for i := 1; i <= 3; i++ {
		if err := s.Push(val(float64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	for i := 3; i >= 1; i-- {
		v, err := s.Pop(nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.T.F[0] != float64(i) {
			t.Fatalf("LIFO violated: got %v want %d", v.T.F[0], i)
		}
	}
	if _, err := s.Pop(nil); err == nil {
		t.Fatal("pop from empty must fail")
	}
}

func TestPushChargesDeviceMemory(t *testing.T) {
	m := &memStub{capacity: 20000}
	s := New("s", false)
	if err := s.Push(val(1), m); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 8192 {
		t.Fatalf("used %d", m.UsedBytes())
	}
	if err := s.Push(val(2), m); err != nil {
		t.Fatal(err)
	}
	// Third push exceeds 20000 bytes.
	if err := s.Push(val(3), m); err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("want OOM, got %v", err)
	}
	// Pops release.
	if _, err := s.Pop(m); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 8192 {
		t.Fatalf("after pop used %d", m.UsedBytes())
	}
}

func TestSwapMovesBytesOffDevice(t *testing.T) {
	m := &memStub{capacity: 10000}
	s := New("s", true) // swap enabled, threshold 0 => always swap
	// Push three large tensors: without swap the second would OOM; with
	// swap each transfer releases device bytes.
	for i := 0; i < 3; i++ {
		if err := s.Push(val(float64(i)), m); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if m.swapOuts != 3 {
		t.Fatalf("swapOuts %d", m.swapOuts)
	}
	if m.UsedBytes() != 0 {
		t.Fatalf("device bytes after swap %d", m.UsedBytes())
	}
	// Pops swap back in.
	for i := 2; i >= 0; i-- {
		v, err := s.Pop(m)
		if err != nil {
			t.Fatal(err)
		}
		if v.T.F[0] != float64(i) {
			t.Fatalf("value order: got %v", v.T.F[0])
		}
	}
	if m.swapIns != 3 {
		t.Fatalf("swapIns %d", m.swapIns)
	}
}

func TestSmallTensorsNeverSwap(t *testing.T) {
	m := &memStub{capacity: 1 << 20}
	s := New("s", true)
	small := ops.TensorVal(tensor.Scalar(1)) // 8 bytes < MinSwapBytes
	if err := s.Push(small, m); err != nil {
		t.Fatal(err)
	}
	if m.swapOuts != 0 {
		t.Fatal("small tensor was swapped")
	}
}

func TestSwapThresholdDefersSwapping(t *testing.T) {
	m := &memStub{capacity: 100000}
	s := New("s", true)
	s.swapThreshold = 0.5 // swap only above 50% pressure
	// First pushes stay resident (usage below half of 100000).
	for i := 0; i < 5; i++ { // 5 * 8192 = 40960 < 50000
		if err := s.Push(val(1), m); err != nil {
			t.Fatal(err)
		}
	}
	if m.swapOuts != 0 {
		t.Fatalf("swapped below threshold: %d", m.swapOuts)
	}
	// Further pushes cross the threshold and swap.
	for i := 0; i < 3; i++ {
		if err := s.Push(val(1), m); err != nil {
			t.Fatal(err)
		}
	}
	if m.swapOuts == 0 {
		t.Fatal("never swapped above threshold")
	}
}

// gatedMem is a DeviceMem whose swap-outs complete only when the test calls
// finishSwapOuts, and which reports every failed Allocate on oomSeen: a
// Push racing this stack's own in-flight swap-out becomes deterministic.
type gatedMem struct {
	memStub
	pending []func()
	oomSeen chan struct{}
}

func (m *gatedMem) Allocate(b int64) error {
	err := m.memStub.Allocate(b)
	if err != nil {
		m.oomSeen <- struct{}{}
	}
	return err
}

func (m *gatedMem) SwapOut(b int64, done func()) {
	m.mu.Lock()
	m.swapOuts++
	m.pending = append(m.pending, done)
	m.mu.Unlock()
}

// finishSwapOuts completes every swap-out started so far.
func (m *gatedMem) finishSwapOuts() {
	m.mu.Lock()
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, done := range pending {
		done()
	}
}

// TestPushWaitsForPendingSwapOut: a Push that finds the device full while
// one of the stack's swap-outs is in flight waits for that swap-out to
// release its bytes and then succeeds; with nothing pending, the OOM is
// returned at once.
func TestPushWaitsForPendingSwapOut(t *testing.T) {
	// oomSeen holds both failed allocations this test provokes, so the
	// final Push never blocks reporting one.
	m := &gatedMem{memStub: memStub{capacity: 8192}, oomSeen: make(chan struct{}, 2)}
	s := New("s", true)
	if err := s.Push(val(1), m); err != nil { // fills the device; swap-out pending
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() { pushed <- s.Push(val(2), m) }()
	<-m.oomSeen // the second Push hit the full device
	select {
	case err := <-pushed:
		t.Fatalf("push returned before the pending swap-out finished: %v", err)
	default:
	}
	m.finishSwapOuts()
	if err := <-pushed; err != nil {
		t.Fatalf("push after swap-out: %v", err)
	}
	m.finishSwapOuts()
	if m.UsedBytes() != 0 || m.swapOuts != 2 {
		t.Fatalf("used %d bytes after %d swap-outs, want 0 after 2", m.UsedBytes(), m.swapOuts)
	}

	// Nothing in flight: a value larger than the device fails at once.
	big := ops.TensorVal(tensor.Full(1, 2048)) // 16KB > capacity
	if err := s.Push(big, m); err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("want OOM, got %v", err)
	}
}

func TestResourceName(t *testing.T) {
	if New("abc", false).ResourceName() != "stack/abc" {
		t.Fatal("ResourceName")
	}
}
