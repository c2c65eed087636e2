package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"runtime"

	"qokit/internal/benchutil"
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/registry"
	"qokit/internal/statevec"
)

// runMemory reproduces the §V-B memory accounting: a complex128 state
// vector costs 16 bytes per amplitude; storing the precomputed
// diagonal as float64 adds 50%, as uint16 codes only 12.5%. The
// harness verifies the uint16 store is *exact* for LABS (integer
// energies below 2^16 — the paper notes the optima are known to be
// < 2^16 for n < 65) and prints the overhead table, with two rows for
// the stored form the engines hold (costvec.Stored: the entries at the
// 2^(n−h) indices a state stored over the cost's symmetry group keeps,
// LABS's h = 2): the heap a built simulator retains, by
// runtime.MemStats, and the bytes a registry entry reports.
func runMemory(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("memory", flag.ContinueOnError)
	n := fs.Int("n", 20, "qubit count")
	if err := fs.Parse(args); err != nil {
		return err
	}

	terms := problems.LABSTerms(*n)
	compiled := poly.Compile(terms)
	pool := statevec.NewPool(0)
	diag := costvec.PrecomputePool(pool, compiled, *n)
	q, err := costvec.QuantizeExact(diag, 1<<16)
	if err != nil {
		return fmt.Errorf("LABS diagonal must be an exact uint16 grid: %w", err)
	}
	exact := true
	for i := range diag {
		if q.Value(i) != diag[i] {
			exact = false
			break
		}
	}
	lo, hi := costvec.MinMax(diag)

	stateBytes := int64(16) << uint(*n)
	f64Bytes := int64(8) << uint(*n)
	u16Bytes := int64(q.MemoryBytes())

	simBytes, err := simulatorBytes(*n, terms)
	if err != nil {
		return err
	}
	reg := registry.New(registry.Options{})
	key, err := reg.Register(registry.Spec{N: *n, Terms: terms})
	if err != nil {
		return err
	}
	h, err := reg.Acquire(context.Background(), key)
	if err != nil {
		return err
	}
	entryBytes := reg.Stats().ResidentBytes
	form := "float64"
	if h.Cost().Codes != nil {
		form = "uint16"
	}
	stored := fmt.Sprintf("%s over 2^%d", form, *n-len(h.Cost().Pivots))
	h.Release()

	pct := func(b int64) string { return fmt.Sprintf("%.1f%%", 100*float64(b)/float64(stateBytes)) }
	tab := benchutil.NewTable("store", "bytes", "overhead vs state")
	tab.Add("state vector (complex128)", fmt.Sprint(stateBytes), "—")
	tab.Add("diagonal float64", fmt.Sprint(f64Bytes), pct(f64Bytes))
	tab.Add("diagonal uint16", fmt.Sprint(u16Bytes), pct(u16Bytes))
	tab.Add("stored form, simulator heap ("+stored+")", fmt.Sprint(simBytes), pct(simBytes))
	tab.Add("stored form, registry entry ("+stored+")", fmt.Sprint(entryBytes), pct(entryBytes))

	fmt.Fprintf(w, "§V-B memory accounting, LABS n=%d (cost range [%g, %g], %d codes)\n", *n, lo, hi, int(q.MaxCode())+1)
	tab.Fprint(w)
	fmt.Fprintf(w, "\nuint16 store exact: %v (paper: +12.5%% memory, exact for LABS at n < 65)\n", exact)
	return nil
}

// simulatorBytes returns the heap a default simulator for the terms
// retains once built: the live heap after a collection, with the
// simulator alive, less the live heap before it was built.
func simulatorBytes(n int, terms poly.Terms) (int64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sim, err := core.New(n, terms, core.Options{})
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sim)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), nil
}
