//go:build !linux

package main

import "time"

// waitUntil returns at t, or as soon after it as time.Sleep allows.
func waitUntil(t time.Time) { time.Sleep(time.Until(t)) }
