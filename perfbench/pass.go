package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"qokit"
)

// env is what one pass of a workload runs with.
type env struct {
	seed       int64
	seconds    time.Duration
	minSamples int
	setupOnly  bool    // stop after the set-up, with no window
	tr         *Tracer // nil on the untraced pass
	stack      stack
}

// passResult is what one pass measured.
type passResult struct {
	setups      []time.Duration // one per set-up, each the first of its process
	lat         []time.Duration // request-unit latencies in the window
	evals       int64           // point evaluations completed in the window
	attempted   int64           // façade requests made, set-ups included
	failed      int64           // of which returned an error
	from, to    time.Time       // the measured window
	rssMiB      float64         // peak resident memory at the window's end
	cpu         time.Duration   // user+system CPU time of the process during the window
	mallocs     uint64          // heap allocations during the window
	gcPause     time.Duration   // GC pause time during the window
	peakWorkers int             // largest elastic pool seen
	reg0, reg1  qokit.RegistryStats
	notes       []string   // workload-specific lines for the log
	probe       probeInput // the problem the kernel probe runs on
	release     func()     // drops what the pass still holds
}

// window tracks the measured window of a pass. It closes once it has
// lasted e.seconds and holds e.minSamples request units, so that at
// least a tenth of them lie beyond the 90th percentile.
type window struct {
	e     *env
	reg   *qokit.ProblemRegistry
	start time.Time
	cpu0  time.Duration
	ms0   runtime.MemStats
	st0   qokit.RegistryStats
}

func startWindow(e *env, reg *qokit.ProblemRegistry) *window {
	w := &window{e: e, reg: reg}
	w.st0 = reg.Stats()
	runtime.ReadMemStats(&w.ms0)
	w.cpu0 = cpuTime()
	w.start = time.Now()
	return w
}

func (w *window) done(samples int) bool {
	return samples >= w.e.minSamples && time.Since(w.start) >= w.e.seconds
}

func (w *window) close(res *passResult) {
	res.from, res.to = w.start, time.Now()
	res.cpu = cpuTime() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - w.ms0.Mallocs
	res.gcPause = time.Duration(ms.PauseTotalNs - w.ms0.PauseTotalNs)
	res.reg0, res.reg1 = w.st0, w.reg.Stats()
	res.rssMiB = peakRSSMiB()
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the user plus system CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// held is what one set-up leaves for the measured window: the problem
// handle the session holds and the service built on it.
type held struct {
	reg *qokit.ProblemRegistry
	key qokit.ProblemKey
	h   *qokit.ProblemHandle
	svc *qokit.Service
}

func (h *held) release() {
	if h.svc != nil {
		h.svc.Close()
		h.svc = nil
	}
	if h.h != nil {
		h.h.Release()
		h.h = nil
	}
}

// setupOn runs the façade path from Acquire to the first answered
// request on a registry the caller has just built and registered into:
// Acquire (held for the session, as qaoasolve does), the service, and
// the request first sends.
func setupOn(e *env, reg *qokit.ProblemRegistry, key qokit.ProblemKey, opts qokit.RegistryServiceOptions, owner *Active, first func(context.Context, *qokit.Service) error) (*held, error) {
	hd := &held{reg: reg, key: key}
	ctx := context.Background()
	a := e.tr.Begin("registry.acquire", owner)
	h, err := reg.Acquire(ctx, key)
	a.End()
	if err != nil {
		return nil, err
	}
	hd.h = h
	if hd.svc, err = e.stack.service(reg, key, opts, owner); err != nil {
		hd.release()
		return nil, err
	}
	if err := first(ctx, hd.svc); err != nil {
		hd.release()
		return nil, err
	}
	return hd, nil
}

// timeSetup times one set-up from the workload's first Register to its
// first answered request. Each process times exactly one, so it always
// pays what a process pays once: RouteAuto calibration at n ≥ 18, heap
// growth and first-touch page faults.
func timeSetup(e *env, res *passResult, once func(owner *Active) (*held, error)) (*held, error) {
	sp := e.tr.Begin("setup", nil)
	t0 := time.Now()
	hd, err := once(sp)
	d := time.Since(t0)
	sp.End()
	res.attempted++
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.setups = append(res.setups, d)
	return hd, nil
}

func joinAngles(gamma, beta []float64) []float64 {
	return append(append(make([]float64, 0, len(gamma)+len(beta)), gamma...), beta...)
}
