package mat

import (
	"math"
	"math/rand"
	"testing"
)

var inverseSizes = []int{1, 3, 7, 8, 9, 61, 64, 65, 2*cholBlock + 5, 256, 257}

// randomPanel is a rows×stride panel of standard normals.
func randomPanel(rng *rand.Rand, rows, stride int) []float64 {
	b := make([]float64, rows*stride)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// TestInverseKernelsIdentical: every vector kernel family of this host
// (AVX2, AVX-512) and the portable dot8 rows return the same Float64bits —
// the 4×8 and 8×8 tiles at unequal leading dimensions and row counts 0, 1
// and past a chunk, with and without NaN and ±Inf operands; and the inverse
// build, MulVec and MulPanel (panel widths 8 to 64, n rounded up to 4 or to
// 8 output rows) at every size (blocked and unblocked factor, n below, at and
// past a multiple of 4, 8, 32 and 64), the products also on a vector with
// NaN and ±Inf entries. A NaN matches any NaN: which operand's payload it
// carries is not part of the contract.
func TestInverseKernelsIdentical(t *testing.T) {
	kernels := hostKernels(t)[1:]
	if len(kernels) == 0 {
		t.Skip("no vector tiles in this build or on this CPU: only the portable kernels run")
	}
	rng := rand.New(rand.NewSource(21))
	poison := func(v []float64) []float64 {
		out := append([]float64(nil), v...)
		for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if len(out) > 0 {
				out[(7*i+3)%len(out)] = bad
			}
		}
		return out
	}
	for _, m := range []int{0, 1, 5, 64, 130} {
		ldc, ldw, ldx := 11, 9, 13
		w, x := randomPanel(rng, m, ldw), randomPanel(rng, m, ldx)
		c := randomPanel(rng, 8, ldc)
		for _, bad := range []bool{false, true} {
			if bad {
				w, x = poison(w), poison(x)
			}
			for _, rows := range []int{4, 8} {
				run := func(k kernel) []float64 {
					out := append([]float64(nil), c...)
					if rows == 4 {
						tile(out, ldc, w, ldw, x, ldx, m, k)
					} else {
						tile8(out, ldc, w, ldw, x, ldx, m, k)
					}
					return out
				}
				want := run(portable)
				for _, k := range kernels {
					if i, ok := sameBitsOrNaN(run(k), want); !ok {
						t.Fatalf("%d-row tile m=%d non-finite=%v: entry %d differs in bits between the %s and portable kernels", rows, m, bad, i, k)
					}
				}
			}
		}
	}
	for _, n := range append(inverseSizes, 13, 63, 100, 127, 128) {
		a := randomSPD(rng, n)
		slow, err := newInverse(a, 0.5, 2, portable)
		if err != nil {
			t.Fatal(err)
		}
		v := randomPanel(rng, 1, n)
		stride := 64
		src := randomPanel(rng, n, stride)
		rows := (n + 3) &^ 3
		for _, k := range kernels {
			fast, err := newInverse(a, 0.5, 2, k)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := bitsEqual(fast.m, slow.m); !ok {
				t.Fatalf("n=%d: inverse entry %d differs in bits between the %s and portable builds", n, i, k)
			}
			for _, in := range [][]float64{v, poison(v)} {
				got, want := make([]float64, n), make([]float64, n)
				fast.mulVec(got, in, k)
				fast.mulVec(want, in, portable)
				if i, ok := sameBitsOrNaN(got, want); !ok {
					t.Fatalf("n=%d: MulVec entry %d differs in bits between the %s and portable kernels", n, i, k)
				}
			}
			for cols := 8; cols <= stride; cols += 8 {
				in := src
				if cols == 24 {
					in = poison(src)
				}
				pg, pw := make([]float64, rows*stride), make([]float64, rows*stride)
				fast.mulPanel(pg, in, stride, cols, k)
				fast.mulPanel(pw, in, stride, cols, portable)
				if i, ok := sameBitsOrNaN(pg, pw); !ok {
					t.Fatalf("n=%d cols=%d: MulPanel entry %d differs in bits between the %s and portable kernels", n, cols, i, k)
				}
			}
		}
	}
}

// TestMulPanelMatchesLoop: every column of the panel product equals MulVec
// on that column bit for bit — for a stride wider than the multiplied
// columns and both factorization routes — and columns past cols come back
// zero.
func TestMulPanelMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range inverseSizes {
		inv, err := NewInverse(randomSPD(rng, n), 1e-3, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cols := range []int{0, 8, 56, 64} {
			stride := cols + 3
			src := randomPanel(rng, n, stride)
			dst := randomPanel(rng, n+3, stride)
			inv.MulPanel(dst, src, stride, cols)
			col, want := make([]float64, n), make([]float64, n)
			for e := 0; e < stride; e++ {
				for i := range col {
					col[i] = src[i*stride+e]
				}
				inv.MulVec(want, col)
				for i := 0; i < n; i++ {
					got := dst[i*stride+e]
					if e >= cols {
						want[i] = 0
					}
					if math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d cols=%d: entry (%d,%d) = %v, want %v", n, cols, i, e, got, want[i])
					}
				}
			}
		}
	}
}

// TestInverseShapePanics: a non-square input is an error, and panel widths
// that are not whole tiles or exceed the stride panic.
func TestInverseShapePanics(t *testing.T) {
	if _, err := NewInverse(NewDense(3, 4), 1, 0); err != ErrShape {
		t.Fatalf("non-square: err = %v, want ErrShape", err)
	}
	inv, err := NewInverse(randomSPD(rand.New(rand.NewSource(3)), 4), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(){
		"cols%8":      func() { inv.MulPanel(make([]float64, 64), make([]float64, 64), 16, 5) },
		"cols>stride": func() { inv.MulPanel(make([]float64, 64), make([]float64, 64), 8, 16) },
		"short panel": func() { inv.MulPanel(make([]float64, 64), make([]float64, 30), 8, 8) },
		"short vec":   func() { inv.MulVec(make([]float64, 3), make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a shape panic", name)
				}
			}()
			call()
		}()
	}
}

// TestInverseRejectsNonPD: an indefinite shifted matrix fails like its
// Cholesky factor, on both factorization routes.
func TestInverseRejectsNonPD(t *testing.T) {
	for _, n := range []int{5, 2*cholBlock + 5} {
		a := randomSPD(rand.New(rand.NewSource(int64(n))), n)
		if _, err := NewInverse(a, -2*a.At(n-1, n-1), 0); err != ErrNotPD {
			t.Fatalf("n=%d: err = %v, want ErrNotPD", n, err)
		}
	}
}

// BenchmarkXUpdate times the x-update kernels at the repository benchmark's
// shapes: the single right-hand-side product at lasso_tall's p=256, the
// 61×61 inverse times a 64-column panel of var_network, and the inverse
// build itself at 256 (factor, L⁻¹ and the Gram of L⁻¹).
func BenchmarkXUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a256 := randomSPD(rng, 256)
	inv256, err := NewInverse(a256, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	v, x := randomPanel(rng, 1, 256), make([]float64, 256)
	b.Run("gemv-256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inv256.MulVec(x, v)
		}
	})
	inv61, err := NewInverse(randomSPD(rng, 61), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	src, dst := randomPanel(rng, 61, 64), make([]float64, 64*64)
	b.Run("panel-61x64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inv61.MulPanel(dst, src, 64, 64)
		}
	})
	b.Run("build-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewInverse(a256, 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
