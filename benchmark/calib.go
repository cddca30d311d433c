package main

import (
	"fmt"
	"time"
)

// calibReps is how many times one calibration times the kernel.
const calibReps = 5

// calibSum is the kernel's result. The kernel is frozen: changing it, or
// this value, breaks the comparison of host.calib_ms between sets of runs.
const calibSum uint64 = 0xdb347abfaa676033

// calibKernel is a fixed integer workload over a 64 KiB table (xorshift
// updates and dependent reads), sized to about 10 ms on the reference host.
// It exercises the same host resources the simulator's pricing loop does —
// L1/L2-resident loads and stores and integer ALU work — so drift in it
// tracks drift in the host, not in webmm.
func calibKernel() uint64 {
	const size = 1 << 13
	var table [size]uint64
	x := uint64(0x9E3779B97F4A7C15)
	var sum uint64
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (size - 1)
		table[j] += x
		sum += table[(j*7+1)&(size-1)]
	}
	return sum
}

// calibrate times the kernel calibReps times and returns the median in
// milliseconds. A wrong result means the kernel was changed and panics:
// only a source edit can cause it.
func calibrate() float64 {
	ms := make([]float64, calibReps)
	for i := range ms {
		start := time.Now()
		sum := calibKernel()
		ms[i] = 1000 * time.Since(start).Seconds()
		if sum != calibSum {
			panic(fmt.Sprintf("calibration kernel changed: sum %#x, want %#x", sum, calibSum))
		}
	}
	return median(ms)
}
