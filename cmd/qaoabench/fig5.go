package main

import (
	"flag"
	"fmt"
	"io"

	"qokit/internal/benchutil"
	"qokit/internal/cluster"
	"qokit/internal/distsim"
	"qokit/internal/statevec"
)

// runFig5 reproduces Fig. 5: weak scaling of one distributed mixer
// application (the dominant cost of a LABS QAOA layer at scale) with a
// fixed per-rank slice of 2^local amplitudes, so n = local + log2(K)
// grows with the rank count exactly as in the paper (n = 33…37 over
// K = 8…128 there; scaled down here).
//
// The two curves are the two all-to-all backends: pairwise (the
// paper's custom MPI code) and transpose (the cuStateVec direct
// peer-to-peer analogue). The host has one physical core, so ranks are
// concurrent, not parallel; alongside wall time the harness reports
// the per-rank communication volume — which is what actually scales —
// and the modeled fabric time under a Polaris-like network model
// (see DESIGN.md §2 on this substitution).
func runFig5(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ContinueOnError)
	local := fs.Int("local", 16, "log2 amplitudes per rank (fixed for weak scaling)")
	kmax := fs.Int("kmax", 16, "largest rank count (power of two)")
	reps := fs.Int("reps", 3, "timing repetitions")
	if err := fs.Parse(args); err != nil {
		return err
	}

	model := cluster.DefaultNetworkModel()
	wall := []benchutil.Series{{Name: "pairwise-wall"}, {Name: "transpose-wall"}}
	fabric := []benchutil.Series{{Name: "pairwise-modeled-net"}, {Name: "transpose-modeled-net"}}
	detail := benchutil.NewTable("K", "n", "algo", "wall(s)", "bytes/rank", "msgs/rank", "modeled-net(s)")

	for k := 1; k <= *kmax; k *= 2 {
		logK := 0
		for 1<<uint(logK) < k {
			logK++
		}
		n := *local + logK
		if 2*logK > n {
			fmt.Fprintf(w, "skipping K=%d: Algorithm 4 needs 2·log2(K) ≤ n\n", k)
			continue
		}
		for i, algo := range []cluster.AlltoallAlgo{cluster.Pairwise, cluster.Transpose} {
			var counters cluster.Counters
			t, _ := benchutil.TimeRepeat(*reps, func() {
				slices := make([]*statevec.SoA, k)
				for r := range slices {
					slices[r] = statevec.NewSoAUniform(*local)
				}
				ctr, err := distsim.MixerOnly(n, k, algo, slices, 0.41)
				if err != nil {
					panic(err)
				}
				counters = ctr
			})
			perRank := cluster.Counters{
				BytesSent: counters.BytesSent / int64(k),
				Messages:  counters.Messages / int64(k),
				Syncs:     counters.Syncs / int64(k),
			}
			modeled := perRank.ModeledTime(model)
			wall[i].Add(float64(k), t.Seconds())
			fabric[i].Add(float64(k), modeled.Seconds())
			detail.Add(fmt.Sprint(k), fmt.Sprint(n), algo.String(),
				benchutil.Seconds(t), fmt.Sprint(perRank.BytesSent), fmt.Sprint(perRank.Messages),
				benchutil.Seconds(modeled))
		}
	}

	fmt.Fprintf(w, "Fig. 5 — weak scaling, 1 distributed mixer, 2^%d amplitudes/rank (median of %d)\n", *local, *reps)
	detail.Fprint(w)
	fmt.Fprintln(w, "\nwall-time series (single-core host: ranks are concurrent, wall grows with total work):")
	benchutil.FprintSeries(w, "K", "seconds", wall)
	fmt.Fprintln(w, "\nmodeled per-rank fabric time (the quantity that weak-scales on a real machine):")
	benchutil.FprintSeries(w, "K", "seconds", fabric)
	fmt.Fprintln(w, "\n(paper: the direct peer-to-peer backend beats pairwise MPI at every K)")
	return nil
}
