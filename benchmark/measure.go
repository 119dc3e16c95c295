package main

import (
	"runtime"
	"syscall"
	"time"
)

// repResult is what one repetition of a workload reports.
type repResult struct {
	setupS    float64 // host seconds to build and boot to a converged view
	measuredS float64 // host seconds of the measured phase
	cpuS      float64 // process user+sys CPU seconds over the measured phase
	ops       int64   // completed operations the throughput is computed from

	attempted, failed int64

	// Go runtime deltas over the measured phase.
	mallocs, allocBytes float64
	gcCycles, gcPauseMs float64

	// rateOps and rateS, when set, are the operations and seconds the
	// throughput is read off: a part of the measured phase (agent-probe:
	// its window-16 part). Zero means all of it.
	rateOps int64
	rateS   float64

	// vals holds the host-time per-layer values this repetition could
	// measure; exact holds the values its seed alone determines (virtual
	// time, counts), which repeat bit for bit.
	vals  map[string]float64
	exact map[string]float64

	// fingerprint, when set, holds everything the seed alone determines:
	// a traced repetition must reproduce its untraced twin's.
	fingerprint string
}

// measure brackets a measured phase with the host-side readings every
// workload shares.
type measure struct {
	start time.Time
	cpu0  float64
	mem0  runtime.MemStats
}

// startMeasure opens a measured phase. It collects the set-up's garbage
// first, so that every repetition starts timing from the same heap
// state instead of inheriting a collection from the one before.
func startMeasure() *measure {
	m := &measure{}
	runtime.GC()
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = processCPU()
	m.start = time.Now()
	return m
}

func (m *measure) stop(res *repResult) {
	res.measuredS = time.Since(m.start).Seconds()
	res.cpuS = processCPU() - m.cpu0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.mallocs = float64(mem.Mallocs - m.mem0.Mallocs)
	res.allocBytes = float64(mem.TotalAlloc - m.mem0.TotalAlloc)
	res.gcCycles = float64(mem.NumGC - m.mem0.NumGC)
	res.gcPauseMs = float64(mem.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF fails only for a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// processCPU returns the process's user+system CPU seconds so far.
func processCPU() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark. Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024
}
