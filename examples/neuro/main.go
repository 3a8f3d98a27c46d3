// Neuro: the paper's §VI neurophysiology application on synthetic data.
//
// The paper analyzes a non-human primate reaching task recording (O'Doherty
// et al.): 192 electrodes over M1 and S1, 51,111 samples, creating a ≈TB
// vectorized problem run on 81,600 cores. Here we (a) run the *functional*
// distributed UoI_VAR on a scaled-down synthetic spike-count recording with
// the same local-excitation + sparse long-range connectivity structure, and
// (b) report the paper-scale runtime prediction from the calibrated machine
// model for the full 192-electrode problem.
//
//	go run ./examples/neuro
package main

import (
	"fmt"
	"log"

	"uoivar/internal/datagen"
	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/mpi"
	"uoivar/internal/perfmodel"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

func main() {
	// (a) Functional run: 24 channels, 2,000 bins, 6 simulated ranks with
	// 2 reader processes feeding the distributed Kronecker assembly.
	const p, n, ranks, readers = 24, 2000, 6, 2
	neu := datagen.MakeNeuro(99, p, n)
	fmt.Printf("synthetic recording: %d channels × %d bins (sqrt-stabilized counts)\n", p, n)

	var res *uoi.VARResult
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var s *mat.Dense
		if c.Rank() < readers {
			s = neu.Series
		}
		r, err := uoi.VAR(s, &uoi.VARConfig{
			Order: 1, B1: 12, B2: 5, Q: 10, LambdaRatio: 1e-2, Seed: 3,
			Placement: &uoi.Placement{Comm: c, Partitioned: true, NReaders: readers},
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	edges := varsim.GrangerEdges(res.A, 1e-7, false)
	trueBeta := varsim.FlattenModel(neu.Model.A, neu.Model.Mu, true)
	sel := metrics.CompareSupports(trueBeta, res.Beta, 1e-6)
	fmt.Printf("inferred functional connectivity: %d directed edges (of %d possible)\n", len(edges), p*(p-1))
	fmt.Printf("selection precision %.2f, recall %.2f\n", sel.Precision(), sel.Recall())
	fmt.Printf("phases: Kron distribution %.3fs, selection %.3fs, estimation %.3fs\n\n",
		res.KronTime.Seconds(), res.Diag.SelectionTime.Seconds(), res.Diag.EstimationTime.Seconds())

	// Local (near-diagonal) edges should dominate, mirroring the generator's
	// electrode-array structure.
	local := 0
	for _, e := range edges {
		if d := e.Source - e.Target; d >= -3 && d <= 3 {
			local++
		}
	}
	fmt.Printf("local (|Δchannel| ≤ 3) edges: %d/%d\n\n", local, len(edges))

	// (b) Paper-scale prediction: 192 electrodes, 51,111 samples, 81,600
	// KNL cores.
	m := perfmodel.CoriKNL()
	b := m.UoIVAR(perfmodel.VARScale{Features: 192, Samples: 51111, Cores: 81600, B1: 30, B2: 20, Q: 20})
	fmt.Println("paper-scale model (192 electrodes, 51,111 samples, 81,600 cores):")
	fmt.Printf("  computation   %8.1fs   (paper reported   96.9s)\n", b.Computation)
	fmt.Printf("  communication %8.1fs   (paper reported 1598.7s)\n", b.Communication)
	fmt.Printf("  distribution  %8.1fs   (paper reported 3034.4s)\n", b.Distribution)
	fmt.Println("  ordering distribution > communication > computation reproduces the paper's finding")
}
