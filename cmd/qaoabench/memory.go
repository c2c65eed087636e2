package main

import (
	"flag"
	"fmt"
	"io"

	"qokit/internal/benchutil"
	"qokit/internal/costvec"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// runMemory reproduces the §V-B memory accounting: a complex128 state
// vector costs 16 bytes per amplitude; storing the precomputed
// diagonal as float64 adds 50%, as uint16 codes only 12.5%. The
// harness verifies the uint16 store is *exact* for LABS (integer
// energies below 2^16 — the paper notes the optima are known to be
// < 2^16 for n < 65) and prints the overhead table.
func runMemory(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("memory", flag.ContinueOnError)
	n := fs.Int("n", 20, "qubit count")
	if err := fs.Parse(args); err != nil {
		return err
	}

	compiled := poly.Compile(problems.LABSTerms(*n))
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

	tab := benchutil.NewTable("store", "bytes", "overhead vs state")
	tab.Add("state vector (complex128)", fmt.Sprint(stateBytes), "—")
	tab.Add("diagonal float64", fmt.Sprint(f64Bytes), fmt.Sprintf("%.1f%%", 100*float64(f64Bytes)/float64(stateBytes)))
	tab.Add("diagonal uint16", fmt.Sprint(u16Bytes), fmt.Sprintf("%.1f%%", 100*float64(u16Bytes)/float64(stateBytes)))

	fmt.Fprintf(w, "§V-B memory accounting, LABS n=%d (cost range [%g, %g], %d codes)\n", *n, lo, hi, int(q.MaxCode())+1)
	tab.Fprint(w)
	fmt.Fprintf(w, "\nuint16 store exact: %v (paper: +12.5%% memory, exact for LABS at n < 65)\n", exact)
	return nil
}
