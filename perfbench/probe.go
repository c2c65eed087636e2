package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qokit"
	"qokit/internal/statevec"
)

// probeInput is the problem the kernel probe runs on: a workload's
// registry-cached diagonal and its depth.
type probeInput struct {
	diag []float64
	n, p int
}

var probeSink float64

// timeKernel runs f for at least budget (and at least three times) and
// returns the median duration of one call.
func timeKernel(budget time.Duration, f func()) time.Duration {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < 3 || (time.Since(start) < budget && len(ds) < 10000) {
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// kernelProbe times the kernels under a workload on its own diagonal,
// with the options the service uses by default, and returns the
// statevec.* and core.* per-layer metrics. Bytes and flops are computed
// from the SoA plane and diagonal sizes (8·2ⁿ bytes each), not
// measured; a copy over arrays of the state's size, in the same run, is
// the bandwidth reference.
func kernelProbe(rep *report, in probeInput, budget time.Duration) (map[string]float64, error) {
	n, p := in.n, in.p
	sim, err := qokit.NewSimulatorFromDiagonal(n, in.diag, qokit.Options{})
	if err != nil {
		return nil, err
	}
	gamma, beta := qokit.TQAInit(p, 0.75)
	r := sim.NewResult()
	if err := sim.SimulateQAOAInto(r, nil, nil); err != nil {
		return nil, err
	}
	layer := timeKernel(budget, func() { sim.ApplyLayer(r, gamma[0], beta[0]) })
	expect := timeKernel(budget, func() { probeSink = r.Expectation() })
	var runErr error
	forward := timeKernel(budget, func() {
		if err := sim.SimulateQAOAInto(r, gamma, beta); err != nil {
			runErr = err
		}
		probeSink = r.Expectation()
	})
	// The service evaluates gradients into pooled buffers, so the probe
	// times SimulateQAOAGradInto rather than the allocating wrapper.
	buf := sim.NewGradBuffers()
	gg, gb := make([]float64, p), make([]float64, p)
	grad := timeKernel(budget, func() {
		if _, err := sim.SimulateQAOAGradInto(buf, gamma, beta, gg, gb); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return nil, runErr
	}

	// The phase/mixer split runs the statevec kernels directly on an SoA
	// state with a pool of the simulator's size.
	pool := statevec.NewPool(sim.Workers())
	soa := statevec.NewSoAUniform(n)
	phase := timeKernel(budget, func() { soa.PhaseDiag(pool, in.diag, gamma[0]) })
	mixer := timeKernel(budget, func() { soa.ApplyUniformRX(pool, beta[0]) })

	src, dst := make([]float64, 2<<n), make([]float64, 2<<n)
	for i := range src {
		src[i] = float64(i)
	}
	cp := timeKernel(budget, func() { parallelCopy(sim.Workers(), dst, src) })

	route := sim.MixerRoute()
	plane := float64(int64(8) << n)
	amps := float64(int64(1) << n)
	type kernel struct {
		name         string
		per          time.Duration
		bytes, flops float64 // computed; flops count a sincos as one
	}
	ks := []kernel{
		{"phase", phase, 5 * plane, 8 * amps},
		{"mixer", mixer, 4 * float64(n) * plane, 6 * float64(n) * amps},
		{"expect", expect, 3 * plane, 5 * amps},
		{"copy", cp, 4 * plane, 0},
	}
	// The default x-mixer sweep folds the phase into the first mixer
	// pass. The FWHT route's traffic is not modeled.
	if route == qokit.RouteSweep {
		ks = append(ks, kernel{"layer", layer, (4*float64(n) + 1) * plane, (8 + 6*float64(n)) * amps})
	} else {
		ks = append(ks, kernel{"layer", layer, 0, 0})
	}

	llc := lastLevelCache()
	copyBytes := int64(16) << n
	rep.infof("probe n=%d p=%d workers=%d route=%v state=%d B per array, copy arrays %d B each, last-level cache %d B",
		n, p, sim.Workers(), route, copyBytes, copyBytes, llc)
	roofline := llc > 0 && copyBytes >= 4*llc
	if !roofline {
		rep.infof("probe no roofline ratio: copy arrays are smaller than 4x the last-level cache, so the copy rate is a cache rate, not memory bandwidth")
	}
	out := map[string]float64{}
	gbps := map[string]float64{}
	for _, k := range ks {
		rate := 0.0
		if k.bytes > 0 {
			rate = k.bytes / k.per.Seconds() / 1e9
		}
		gbps[k.name] = rate
		line := fmt.Sprintf("kernel %-6s %10.4f ms/call  computed bytes %12.0f  %7.2f GB/s", k.name, ms(k.per), k.bytes, rate)
		if k.bytes > 0 && k.flops > 0 {
			line += fmt.Sprintf("  %.3f flop/B (computed)", k.flops/k.bytes)
		}
		if roofline && k.name != "copy" && gbps["copy"] > 0 {
			line += fmt.Sprintf("  %.2f of copy rate", rate/gbps["copy"])
		}
		if k.bytes == 0 {
			line += "  (traffic of the FWHT route not modeled)"
		}
		rep.infof("%s", line)
		if k.name != "copy" {
			out["statevec."+k.name+"_ms"] = ms(k.per)
		}
		out["statevec."+k.name+"_gbps"] = rate
	}
	rep.infof("kernel forward %10.4f ms/call (p=%d layers + expectation)", ms(forward), p)
	out["core.grad_ms"] = ms(grad)
	out["core.reverse_ms"] = ms(grad - forward)
	out["core.route_fwht"] = 0
	if route == qokit.RouteFWHT {
		out["core.route_fwht"] = 1
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// parallelCopy copies src into dst in w contiguous chunks at once.
func parallelCopy(w int, dst, src []float64) {
	chunk := (len(src) + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < len(src); lo += chunk {
		hi := min(lo+chunk, len(src))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			copy(dst[lo:hi], src[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

// cacheLevel is one CPU cache as sysfs describes it.
type cacheLevel struct {
	level int
	kind  string
	bytes int64
}

// caches reads cpu0's cache hierarchy from sysfs (nil when unavailable).
func caches() []cacheLevel {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []cacheLevel
	for _, d := range dirs {
		read := func(f string) string {
			b, err := os.ReadFile(filepath.Join(d, f))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		level, err := strconv.Atoi(read("level"))
		if err != nil {
			continue
		}
		size := read("size")
		mult := int64(1)
		switch {
		case strings.HasSuffix(size, "K"):
			mult, size = 1<<10, strings.TrimSuffix(size, "K")
		case strings.HasSuffix(size, "M"):
			mult, size = 1<<20, strings.TrimSuffix(size, "M")
		}
		v, err := strconv.ParseInt(size, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, cacheLevel{level: level, kind: read("type"), bytes: v * mult})
	}
	return out
}

// lastLevelCache is the size of the highest cache level (0 if unknown).
func lastLevelCache() int64 {
	var best cacheLevel
	for _, c := range caches() {
		if c.level > best.level {
			best = c
		}
	}
	return best.bytes
}
