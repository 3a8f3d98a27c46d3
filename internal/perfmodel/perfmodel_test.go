package perfmodel

import (
	"math"
	"testing"
)

// The tests in this file encode the paper's qualitative findings as
// assertions on the model — the "shape criteria" listed in DESIGN.md §4.

const (
	gb = 1e9
	tb = 1e12
)

func TestTableIIShapes(t *testing.T) {
	m := CoriKNL()
	// Conventional read must be catastrophically slower than randomized at
	// every striped size (paper: 1200s vs 0.52s at 128 GB).
	cases := []struct {
		bytes   float64
		cores   int
		striped bool
		// paper-reported conventional read seconds, for a 2× sanity band
		paperConvRead float64
	}{
		{16 * gb, 68, false, 204.71},
		{128 * gb, 4352, true, 1200.81},
		{256 * gb, 8704, true, 2204.52},
		{512 * gb, 17408, true, 5323.486},
		{1024 * gb, 34816, true, 11732.48},
	}
	for _, c := range cases {
		convRead, convDist := m.ConventionalIO(c.bytes)
		randRead, randDist := m.RandomizedIO(c.bytes, c.cores, c.striped)
		if c.striped && convRead < 50*randRead {
			t.Fatalf("%v bytes: conventional read %.1fs not ≫ randomized %.3fs", c.bytes, convRead, randRead)
		}
		if convRead < c.paperConvRead/2.5 || convRead > c.paperConvRead*2.5 {
			t.Fatalf("%v bytes: conventional read %.1fs outside 2.5× of paper %.1fs", c.bytes, convRead, c.paperConvRead)
		}
		if randRead > 100 {
			t.Fatalf("randomized read %.1fs must stay under 100s (paper: 'below 100 seconds')", randRead)
		}
		if convDist <= randDist {
			t.Fatalf("conventional distribution %.2f must exceed randomized %.2f", convDist, randDist)
		}
	}
	// The unstriped 16 GB file reads slower than the striped 128 GB file
	// (the paper's anomaly: "read time for the 16GB is higher ... because
	// it was not striped into OSTs").
	r16, _ := m.RandomizedIO(16*gb, 68, false)
	r128, _ := m.RandomizedIO(128*gb, 4352, true)
	if r16 <= r128 {
		t.Fatalf("unstriped 16GB read %.2f must exceed striped 128GB read %.2f", r16, r128)
	}
}

func TestFig2SingleNodeComputeDominates(t *testing.T) {
	m := CoriKNL()
	b := m.UoILasso(LassoScale{DataBytes: 16 * gb, Features: 20101, Cores: 68, B1: 5, B2: 5, Q: 8})
	if frac := b.Computation / b.Total(); frac < 0.85 {
		t.Fatalf("single-node computation fraction %.2f, want ≈0.9 (paper: ~90%%)", frac)
	}
	if frac := b.Communication / b.Total(); frac > 0.10 {
		t.Fatalf("single-node communication fraction %.2f, want <10%%", frac)
	}
}

func weakScalingLasso() []LassoScale {
	sizes := []float64{128 * gb, 256 * gb, 512 * gb, 1 * tb, 2 * tb, 4 * tb, 8 * tb}
	cores := []int{4352, 8704, 17408, 34816, 69632, 139264, 278528}
	out := make([]LassoScale, len(sizes))
	for i := range sizes {
		out[i] = LassoScale{DataBytes: sizes[i], Features: 20101, Cores: cores[i], B1: 5, B2: 5, Q: 8, Striped: true}
	}
	return out
}

func TestFig4WeakScalingShapes(t *testing.T) {
	m := CoriKNL()
	var comps, comms []float64
	for _, s := range weakScalingLasso() {
		b := m.UoILasso(s)
		comps = append(comps, b.Computation)
		comms = append(comms, b.Communication)
	}
	// Computation near-ideal weak scaling: within 15% across the sweep.
	minC, maxC := comps[0], comps[0]
	for _, c := range comps {
		minC = math.Min(minC, c)
		maxC = math.Max(maxC, c)
	}
	if maxC/minC > 1.15 {
		t.Fatalf("weak-scaling computation varies %.2f×, want near-flat", maxC/minC)
	}
	// Communication grows monotonically with core count...
	for i := 1; i < len(comms); i++ {
		if comms[i] <= comms[i-1] {
			t.Fatalf("communication must grow with cores: %v", comms)
		}
	}
	// ...stays small at the low end and overtakes computation at the top.
	if comms[0] > 0.3*comps[0] {
		t.Fatalf("at 128GB communication %.1f should be well below computation %.1f", comms[0], comps[0])
	}
	if comms[len(comms)-1] < comps[len(comps)-1] {
		t.Fatalf("at 8TB communication %.1f should exceed computation %.1f (paper: 'runtime is determined by communication')",
			comms[len(comms)-1], comps[len(comps)-1])
	}
}

func TestFig5AllreduceVariability(t *testing.T) {
	m := CoriKNL()
	msg := 20104.0 * 8
	var prevMin, prevGap float64
	for i, cores := range []int{4352, 8704, 17408, 34816, 69632, 139264, 278528} {
		tmin, tmax := m.AllreduceTime(cores, msg)
		if tmax <= tmin {
			t.Fatalf("Tmax must exceed Tmin at %d cores", cores)
		}
		if i > 0 {
			if tmin <= prevMin {
				t.Fatalf("Tmin must grow with cores")
			}
			if tmax-tmin <= prevGap {
				t.Fatalf("variability envelope must widen with cores")
			}
		}
		prevMin, prevGap = tmin, tmax-tmin
	}
	if a, b := m.AllreduceTime(1, msg); a != 0 || b != 0 {
		t.Fatal("single-rank Allreduce must be free")
	}
}

func TestFig6StrongScalingShapes(t *testing.T) {
	m := CoriKNL()
	cores := []int{17408, 34816, 69632, 139264}
	var comps, comms []float64
	for _, c := range cores {
		b := m.UoILasso(LassoScale{DataBytes: 1 * tb, Features: 20101, Cores: c, B1: 5, B2: 5, Q: 8, Striped: true})
		comps = append(comps, b.Computation)
		comms = append(comms, b.Communication)
	}
	for i := 1; i < len(comps); i++ {
		if comps[i] >= comps[i-1] {
			t.Fatalf("strong-scaling computation must decrease: %v", comps)
		}
		if comms[i] <= comms[i-1] {
			t.Fatalf("strong-scaling communication must grow: %v", comms)
		}
	}
	// Superlinear final point: the last halving must beat the ideal 2×
	// (paper: AVX512/cache effects below expected trend at 139,264 cores).
	if ratio := comps[2] / comps[3]; ratio < 2.05 {
		t.Fatalf("final strong-scaling step speedup %.2f, want >2 (superlinear)", ratio)
	}
	// Earlier steps are near-ideal (between 1.7× and 2.3×).
	for i := 1; i < 3; i++ {
		r := comps[i-1] / comps[i]
		if r < 1.7 || r > 2.3 {
			t.Fatalf("strong-scaling step %d speedup %.2f outside ideal band", i, r)
		}
	}
}

func TestFig3GridPreference(t *testing.T) {
	m := CoriKNL()
	grids := [][2]int{{16, 2}, {8, 4}, {4, 8}, {2, 16}}
	var totals []float64
	for _, g := range grids {
		b := m.UoILasso(LassoScale{DataBytes: 16 * gb, Features: 20101, Cores: 2176, B1: 48, B2: 48, Q: 48, PB: g[0], PLambda: g[1], Striped: true})
		totals = append(totals, b.Total())
	}
	// Paper: "Across various configurations the 2×16 has a better runtime."
	best := totals[len(totals)-1]
	for i, tot := range totals[:len(totals)-1] {
		if best >= tot {
			t.Fatalf("2×16 total %.2f must beat %d×%d total %.2f", best, grids[i][0], grids[i][1], tot)
		}
	}
}

func TestFig7VARSingleNodeComputeDominates(t *testing.T) {
	m := CoriKNL()
	p := VARFeaturesForBytes(16*gb, 1)
	b := m.UoIVAR(VARScale{Features: p, Cores: 68, B1: 5, B2: 5, Q: 8})
	if frac := b.Computation / b.Total(); frac < 0.75 {
		t.Fatalf("VAR single-node computation fraction %.2f, want ≈0.88", frac)
	}
}

func TestFig8VARGridShapes(t *testing.T) {
	m := CoriKNL()
	grids := [][2]int{{16, 2}, {8, 4}, {4, 8}, {2, 16}}
	var comps, dists []float64
	for _, g := range grids {
		b := m.UoIVAR(VARScale{Features: 211, Cores: 2176, B1: 32, B2: 32, Q: 16, PB: g[0], PLambda: g[1]})
		comps = append(comps, b.Computation)
		dists = append(dists, b.Distribution)
	}
	for i := 1; i < len(grids); i++ {
		// "computation ... decreases with increases in parallelism of P_λ"
		if comps[i] >= comps[i-1] {
			t.Fatalf("VAR computation must fall as P_λ rises: %v", comps)
		}
		// "as the P_λ parallelism increases the Kronecker product and
		// vectorization time increases"
		if dists[i] <= dists[i-1] {
			t.Fatalf("VAR distribution must rise with P_λ: %v", dists)
		}
	}
}

func varWeakScaling() []VARScale {
	// Problem sizes 128GB → 8TB under the Table I m=p convention.
	cores := []int{2176, 4352, 8704, 17408, 34816, 69632, 139264}
	sizes := []float64{128 * gb, 256 * gb, 512 * gb, 1 * tb, 2 * tb, 4 * tb, 8 * tb}
	out := make([]VARScale, len(sizes))
	for i := range sizes {
		out[i] = VARScale{Features: VARFeaturesForBytes(sizes[i], 1), Cores: cores[i], B1: 30, B2: 20, Q: 20}
	}
	return out
}

func TestFig9VARWeakScalingShapes(t *testing.T) {
	m := CoriKNL()
	scales := varWeakScaling()
	var comps, comms, dists []float64
	for _, s := range scales {
		b := m.UoIVAR(s)
		comps = append(comps, b.Computation)
		comms = append(comms, b.Communication)
		dists = append(dists, b.Distribution)
	}
	// Smallest problem: computation dominates (paper Discussion).
	if comps[0] < dists[0] || comps[0] < comms[0] {
		t.Fatalf("at 128GB computation %.1f must dominate (distr %.1f, comm %.1f)", comps[0], dists[0], comms[0])
	}
	// ≥2TB (index 4+): distribution dominates everything.
	for i := 4; i < len(scales); i++ {
		if dists[i] < comps[i] || dists[i] < comms[i] {
			t.Fatalf("at index %d distribution %.1f must dominate (comp %.1f, comm %.1f)", i, dists[i], comps[i], comms[i])
		}
	}
	// Monotone growth of distribution and communication.
	for i := 1; i < len(scales); i++ {
		if dists[i] <= dists[i-1] || comms[i] <= comms[i-1] {
			t.Fatalf("distribution/communication must grow: %v / %v", dists, comms)
		}
	}
	// Distribution grows faster than computation (the crossover mechanism).
	if dists[len(dists)-1]/dists[0] <= comps[len(comps)-1]/comps[0] {
		t.Fatal("distribution growth must outpace computation growth")
	}
}

func TestFig10VARStrongScalingShapes(t *testing.T) {
	m := CoriKNL()
	p := VARFeaturesForBytes(1*tb, 1)
	cores := []int{4352, 8704, 17408, 34816}
	var comps, dists, comms []float64
	for _, c := range cores {
		b := m.UoIVAR(VARScale{Features: p, Cores: c, B1: 30, B2: 20, Q: 20})
		comps = append(comps, b.Computation)
		dists = append(dists, b.Distribution)
		comms = append(comms, b.Communication)
	}
	for i := 1; i < len(cores); i++ {
		if comps[i] >= comps[i-1] {
			t.Fatalf("VAR strong-scaling computation must decrease: %v", comps)
		}
		if dists[i] <= dists[i-1] {
			t.Fatalf("VAR strong-scaling distribution must grow with cores: %v", dists)
		}
		if comms[i] <= comms[i-1] {
			t.Fatalf("VAR strong-scaling communication must grow: %v", comms)
		}
	}
	// At the largest core count the Kronecker distribution dominates.
	last := len(cores) - 1
	if dists[last] < comps[last] {
		t.Fatalf("at %d cores distribution %.1f must exceed computation %.1f", cores[last], dists[last], comps[last])
	}
}

func TestSectionVIOrderings(t *testing.T) {
	m := CoriKNL()
	// Finance (470 companies, ≈80GB problem, 2,176 cores): computation
	// dominates communication and the Kronecker time (paper: 376.9s vs
	// 4.74s vs 16.4s).
	f := m.UoIVAR(VARScale{Features: 470, Samples: 195, Cores: 2176, B1: 40, B2: 5, Q: 20})
	if f.Computation < f.Distribution {
		t.Fatalf("finance: computation %.1f must exceed distribution %.1f", f.Computation, f.Distribution)
	}
	// Neuro (192 electrodes, 51,111 samples, ≈TBs problem, 81,600 cores):
	// distribution > communication > computation (paper: 3034s > 1599s >
	// 96.9s).
	n := m.UoIVAR(VARScale{Features: 192, Samples: 51111, Cores: 81600, B1: 30, B2: 20, Q: 20})
	if !(n.Distribution > n.Communication && n.Communication > n.Computation) {
		t.Fatalf("neuro ordering wrong: distr %.1f comm %.1f comp %.1f", n.Distribution, n.Communication, n.Computation)
	}
}

func TestProblemSizeFormulas(t *testing.T) {
	// Table I anchors: p=356 ⇒ ~128 GB, p=1000 ⇒ 8 TB (m=p, d=1).
	if got := VARProblemBytes(356, 356, 1); math.Abs(got-128*gb)/(128*gb) > 0.02 {
		t.Fatalf("VARProblemBytes(356) = %.3e, want ≈128GB", got)
	}
	if got := VARProblemBytes(1000, 1000, 1); got != 8*tb {
		t.Fatalf("VARProblemBytes(1000) = %.3e, want 8TB", got)
	}
	if p := VARFeaturesForBytes(8*tb, 1); p != 1000 {
		t.Fatalf("VARFeaturesForBytes(8TB) = %d", p)
	}
	if p := VARFeaturesForBytes(128*gb, 1); p < 352 || p > 360 {
		t.Fatalf("VARFeaturesForBytes(128GB) = %d, want ≈356", p)
	}
	// LASSO data bytes round trip.
	n := 100000
	s := LassoScale{DataBytes: float64(n) * 20102 * 8, Features: 20101}
	if math.Abs(s.Rows()-float64(n)) > 0.5 {
		t.Fatalf("Rows() = %v, want %d", s.Rows(), n)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{DataIO: 1, Distribution: 2, Computation: 3, Communication: 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %v", b.Total())
	}
}

func TestNodes(t *testing.T) {
	m := CoriKNL()
	if m.Nodes(68) != 1 || m.Nodes(69) != 2 || m.Nodes(1) != 1 || m.Nodes(139264) != 2048 {
		t.Fatal("Nodes arithmetic wrong")
	}
}

func TestEffectiveKernelBonus(t *testing.T) {
	m := CoriKNL()
	// Large working sets get the base rate; tiny ones get the cache bonus.
	if m.effectiveGemm(1e6) != m.GemmGFLOPS {
		t.Fatal("no bonus expected for large blocks")
	}
	if m.effectiveGemm(1) <= m.GemmGFLOPS {
		t.Fatal("bonus expected for tiny blocks")
	}
	if m.effectiveGemv(1) <= m.GemvGFLOPS {
		t.Fatal("gemv bonus expected for tiny blocks")
	}
}

func TestScaleNormalization(t *testing.T) {
	s := LassoScale{}.normalize()
	if s.PB != 1 || s.PLambda != 1 || s.Iters != 60 || s.B1 != 1 || s.Q != 1 {
		t.Fatalf("lasso normalize = %+v", s)
	}
	v := VARScale{Features: 100, Cores: 4}.normalize()
	if v.Order != 1 || v.Samples != 100 || v.NReaders < 1 {
		t.Fatalf("var normalize = %+v", v)
	}
	// NReaders caps at cores/8 when that is smaller than samples.
	v2 := VARScale{Features: 1000, Cores: 800}.normalize()
	if v2.NReaders != 100 {
		t.Fatalf("NReaders = %d, want 100", v2.NReaders)
	}
}

func TestStripedReadBounds(t *testing.T) {
	m := CoriKNL()
	// More readers than OSTs cannot exceed OSTCount×bandwidth.
	atCap := m.StripedReadTime(1e12, m.OSTCount, true)
	beyond := m.StripedReadTime(1e12, m.OSTCount*10, true)
	if beyond != atCap {
		t.Fatalf("read must saturate at OST count: %v vs %v", beyond, atCap)
	}
	if m.StripedReadTime(1e9, 0, true) <= 0 {
		t.Fatal("degenerate reader count must still be positive")
	}
}
