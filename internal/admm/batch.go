package admm

import (
	"math"

	"uoivar/internal/mat"
)

// SolveRHSBatch is SolveRHS for many right-hand sides at one λ: column e of
// the row-major p×E panel aty is the Xᵀy of response e, and out[e] is what
// SolveRHS(column e, λ, warm pair e) returns — Beta, U, Iters, Converged and
// the residuals bit for bit — while the E iterations run in lock-step so
// every x-update is one product of the cached inverse with a p×E panel
// (mat.Inverse.MulPanel) instead of E products with a vector. UoI_VAR's p
// equations share one design and one factorization, which makes a whole
// bootstrap × λ cell a single call.
//
// warmZ[e] / warmU[e] seed column e (a nil slice, or a nil entry, is a cold
// start); opts.WarmZ and opts.WarmU are ignored. The columns are split into
// contiguous groups over at most `workers` goroutines (≤0 selects
// mat.DefaultWorkers). A column never interacts with another — not in the
// solve, not in its residual sums, not in its stopping test — so the result
// is independent of the split; workers only decide who computes a column.
// Tracer counters advance exactly as E SolveRHS calls would advance them.
func (f *Factorization) SolveRHSBatch(aty *mat.Dense, lambda float64, warmZ, warmU [][]float64, opts *Options, workers int) []Result {
	if aty.Rows != f.p {
		panic(mat.ErrShape)
	}
	o := opts.defaults()
	out := make([]Result, aty.Cols)
	mat.ParallelFor(aty.Cols, workers, func(lo, hi int) {
		f.solveColumns(aty, lo, hi, lambda, warmZ, warmU, &o, out)
	})
	return out
}

// solveColumns is the serial ADMM loop: it runs the lock-step iteration
// for panel columns [lo, hi) and writes out[lo:hi]. State lives in
// row-major p×stride panels (panelStride) whose leading `active` slots hold
// the columns still iterating: a column that meets its stopping test is
// copied out and its slot refilled from the last active one (slot order is
// immaterial), so late iterations sweep only the stragglers.
func (f *Factorization) solveColumns(aty *mat.Dense, lo, hi int, lambda float64, warmZ, warmU [][]float64, o *Options, out []Result) {
	p, w := f.p, hi-lo
	stride := panelStride(w)
	// a = Xᵀy, z, u, the x-update's right-hand side r = a + ρ(z − u), and x
	// (the product's panel, p rounded up to 4 rows).
	n := p * stride
	panels := make([]float64, 4*n+((p+3)&^3)*stride)
	a, z, u, r, x := panels[:n], panels[n:2*n], panels[2*n:3*n], panels[3*n:4*n], panels[4*n:]
	slot := make([]int, w) // slot → panel column
	for c := range slot {
		slot[c] = lo + c
		scatterCol(z, stride, c, warmAt(warmZ, lo+c), p)
		scatterCol(u, stride, c, warmAt(warmU, lo+c), p)
	}
	for i := 0; i < p; i++ {
		row := i * stride
		copy(a[row:row+w], aty.Data[i*aty.Cols+lo:i*aty.Cols+hi])
		for k := row; k < row+w; k++ {
			r[k] = a[k] + float64(f.rho*(z[k]-u[k]))
		}
	}
	// Per-slot reductions of one iteration (zuPass): the squared residual
	// sums and the plain sums of squares of x, z and u that screen the
	// stopping test.
	acc := make([]float64, 5*stride)
	primal, dual := acc[:stride], acc[stride:2*stride]
	sqX, sqZ, sqU := acc[2*stride:3*stride], acc[3*stride:4*stride], acc[4*stride:]
	// One column of x, z and u for the exact test: a one-column panel is
	// its own column (and its z and u become the result), a wider one is
	// gathered.
	var xc, zc, uc []float64
	if stride == 1 {
		xc, zc, uc = x[:p], z[:p:p], u[:p:p]
	} else {
		cols := make([]float64, 3*p)
		xc, zc, uc = cols[:p], cols[p:2*p], cols[2*p:]
	}

	totalIters := 0
	finish := func(c, iters int, converged bool) {
		res := Result{Beta: zc, U: uc, Iters: iters, Converged: converged, PrimalRes: primal[c], DualRes: dual[c]}
		if stride > 1 {
			bu := make([]float64, 2*p)
			res.Beta, res.U = bu[:p:p], bu[p:]
			gatherCol(res.Beta, z, stride, c)
			gatherCol(res.U, u, stride, c)
		}
		out[slot[c]] = res
		totalIters += iters
	}

	sqrtP := math.Sqrt(float64(p))
	kappa := lambda / f.rho
	screen := newStopScreen(p, float64(sqrtP*o.AbsTol))
	active := w
	for iter := 1; iter <= o.MaxIter && active > 0; iter++ {
		// x-update: x = (XᵀX + ρI)⁻¹ r, on a wider panel over whole
		// 8-column tiles — the slots between active and the tile boundary
		// multiply stale columns nobody reads.
		f.XUpdatePanel(x, r, stride, padTo8(active))

		// z-update z = S_{λ/ρ}(x + u), u-update u += x − z, the residual
		// sums and the next iteration's right-hand side.
		zuPass(z, u, r, x, a, acc, stride, p, active, kappa, f.rho, lambda > 0, hasAVX2)

		// Stopping test per column, last slot first so a refill only ever
		// moves a slot that has already been tested this iteration. A
		// column far from convergence — almost every column on almost
		// every iteration — is screened out by its plain sums of squares;
		// only a column the screen cannot rule out gathers its x, z and u
		// for the exact test, whose verdict it always is.
		for c := active - 1; c >= 0; c-- {
			primal[c], dual[c] = math.Sqrt(primal[c]), math.Sqrt(dual[c])
			if screen.above(primal[c], o.RelTol, 0, 1, math.Max(sqX[c], sqZ[c])) || screen.above(dual[c], o.RelTol*f.rho, 0, 1, sqU[c]) {
				continue
			}
			if stride > 1 {
				gatherCol(xc, x, stride, c)
				gatherCol(zc, z, stride, c)
				gatherCol(uc, u, stride, c)
			}
			epsPrimal := float64(sqrtP*o.AbsTol) + float64(o.RelTol*math.Max(mat.Norm2(xc), mat.Norm2(zc)))
			epsDual := float64(sqrtP*o.AbsTol) + float64(o.RelTol*f.rho*mat.Norm2(uc))
			if !(primal[c] <= epsPrimal && dual[c] <= epsDual) {
				continue
			}
			finish(c, iter, true)
			active--
			if c == active {
				continue
			}
			for i := 0; i < p; i++ {
				d, s := i*stride+c, i*stride+active
				a[d], z[d], u[d], r[d] = a[s], z[s], u[s], r[s]
			}
			primal[c], dual[c], slot[c] = primal[active], dual[active], slot[active]
		}
	}
	for c := 0; c < active; c++ {
		finish(c, o.MaxIter, false)
	}
	countSolves(o.Trace, w, totalIters, totalIters)
}

// zuPass is the z/u pass of one iteration of the serial loop over slots
// [0, active) of row-major p×stride panels: z = S_κ(x + u) (no threshold
// unless shrink, so λ = 0 keeps a −0), u += x − z, the next right-hand side
// r = a + ρ(z − u), and per slot c five sums over the rows in order —
// primal, dual, Σx², Σz² and Σu² at acc[j·stride+c], j = 0…4. The portable
// loop below is the oracle. With avx2 a wider panel runs zuStrips instead,
// whose lanes are columns: each lane is the portable loop on its column, so
// the bits are the same. It runs whole 4-column strips, so the slots between
// active and the strip boundary are computed too — stale slots that nothing
// reads, inside the panel since cols ≤ stride. A one-column panel stays
// scalar: lanes over its rows would reorder its sums.
func zuPass(z, u, r, x, a, acc []float64, stride, p, active int, kappa, rho float64, shrink, avx2 bool) {
	if avx2 && stride > 1 && p > 0 {
		cols, n := (active+3)&^3, p*stride
		if cols > stride {
			panic(mat.ErrShape)
		}
		_, _, _, _, _, _ = z[n-1], u[n-1], r[n-1], x[n-1], a[n-1], acc[5*stride-1] // keep the assembly in bounds
		zuStrips(&z[0], &u[0], &r[0], &x[0], &a[0], &acc[0], stride, p, cols, kappa, rho, shrink)
		return
	}
	for c := 0; c < active; c++ {
		var pr, du, sx, sz, su float64
		for k := c; k < p*stride; k += stride {
			xv, uv, zOld := x[k], u[k], z[k]
			zv := xv + uv
			if shrink {
				zv = SoftThreshold(zv, kappa)
			}
			uv += xv - zv
			z[k], u[k] = zv, uv
			r[k] = a[k] + float64(rho*(zv-uv))
			d := xv - zv
			pr += float64(d * d)
			d = rho * (zv - zOld)
			du += float64(d * d)
			sx += float64(xv * xv)
			sz += float64(zv * zv)
			su += float64(uv * uv)
		}
		acc[c], acc[stride+c], acc[2*stride+c], acc[3*stride+c], acc[4*stride+c] = pr, du, sx, sz, su
	}
}

// stopScreen is the cheap half of an ADMM stopping test over vectors of n
// entries, whose tolerances abs + rel·max(norm, scale·‖v‖) take ‖v‖ from
// mat.Norm2 (scaled: a max pass, then a division per entry). above reports
// that res certainly exceeds such a tolerance given sq, the plain float sum
// of squares of v: inside [1e-180, 1e300] sq is clear of overflow and of
// underflow in its terms, so √sq and mat.Norm2(v) agree to a relative
// (n+5)·2⁻⁵³ and the two tolerances differ by far less than the slack
// factor; the smaller of two screened vectors cannot matter, since a sum the
// range check would reject is below 1e-180 in truth as well. Outside the
// range, or with a NaN anywhere, above is false and the exact test decides:
// the screen only ever answers "certainly not yet".
type stopScreen struct{ abs, slack float64 }

func newStopScreen(n int, abs float64) stopScreen {
	return stopScreen{abs: abs, slack: 1 + float64(4*float64(n+8)*0x1p-52)}
}

func (s stopScreen) above(res, rel, norm, scale, sq float64) bool {
	return sq >= 1e-180 && sq <= 1e300 && res > (s.abs+float64(rel*math.Max(norm, scale*math.Sqrt(sq))))*s.slack
}

// panelStride is the row stride of a panel of cols columns: one column is a
// contiguous vector (XUpdatePanel's GEMV case), more are padded to whole
// 8-column product tiles.
func panelStride(cols int) int {
	if cols == 1 {
		return 1
	}
	return padTo8(cols)
}

// padTo8 rounds a column count up to whole 8-column product tiles.
func padTo8(n int) int { return (n + 7) &^ 7 }

// warmAt returns warm start e of a per-column list (nil: cold).
func warmAt(warm [][]float64, e int) []float64 {
	if e < len(warm) {
		return warm[e]
	}
	return nil
}

// gatherCol reads panel column c into dst.
func gatherCol(dst, panel []float64, stride, c int) {
	for i := range dst {
		dst[i] = panel[i*stride+c]
	}
}

// scatterCol writes src (at most p entries) down panel column c.
func scatterCol(panel []float64, stride, c int, src []float64, p int) {
	for i := 0; i < p && i < len(src); i++ {
		panel[i*stride+c] = src[i]
	}
}
