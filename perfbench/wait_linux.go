package main

import (
	"syscall"
	"time"
)

// waitUntil returns at t, or as soon after it as the kernel allows.
// time.Sleep rounds a wait of less than a millisecond up to about a
// millisecond on Linux, longer than the gap between two open-loop
// requests, so the last stretch of the wait blocks this goroutine's thread
// in nanosleep, which wakes within about 60µs.
func waitUntil(t time.Time) {
	wait := time.Until(t)
	if wait > 2*time.Millisecond {
		time.Sleep(wait - time.Millisecond)
		wait = time.Until(t)
	}
	if wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted wait only sends early
	}
}
