package uoi

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"uoivar/internal/checkpoint"
	"uoivar/internal/mpi"
)

// assertBitsEqual fails unless a and b are bitwise-identical float slices.
func assertBitsEqual(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: coefficient %d not bit-identical (%v vs %v)", label, i, a[i], b[i])
		}
	}
}

func ckptLassoConfig(path string) *LassoConfig {
	return &LassoConfig{
		B1: 6, B2: 4, Q: 5, Seed: 11, Workers: 3,
		Checkpoint: &CheckpointConfig{Path: path},
	}
}

func TestCheckpointedLassoMatchesSerial(t *testing.T) {
	x, y, _ := makeRegression(3, 80, 12, 4, 0.3)
	plain, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 4, Q: 5, Seed: 11, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fit.uoickpt")
	ck, err := Lasso(x, y, ckptLassoConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "checkpointed vs plain", ck.Beta, plain.Beta)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Resuming the finished checkpoint recomputes nothing and returns the
	// identical model.
	cfg := ckptLassoConfig(path)
	cfg.Checkpoint.Resume = true
	resumed, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "resume of complete fit", resumed.Beta, plain.Beta)
	if resumed.Diag.LassoFits != 0 || resumed.Diag.OLSFits != 0 {
		t.Fatalf("resume of a complete fit recomputed cells: %+v", resumed.Diag)
	}
	if resumed.Bootstrap.B1Completed != 6 || resumed.Bootstrap.B2Completed != 4 {
		t.Fatalf("resumed bootstrap stats wrong: %+v", resumed.Bootstrap)
	}
}

func TestCheckpointedLassoResumeMidFit(t *testing.T) {
	x, y, _ := makeRegression(4, 70, 10, 3, 0.3)
	plain, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 4, Q: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fit.uoickpt")

	// First attempt dies at estimation bootstrap 2 (strict mode): every
	// selection cell and the earlier estimation cells are already durable.
	cfg := ckptLassoConfig(path)
	cfg.Workers = 1
	cfg.BootstrapFault = func(phase string, k int) error {
		if phase == "estimation" && k == 2 {
			return errors.New("injected crash")
		}
		return nil
	}
	if _, err := Lasso(x, y, cfg); err == nil {
		t.Fatal("interrupted fit must fail")
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("no usable checkpoint after crash: %v", err)
	}
	if st.SelectionRecorded() != 6 {
		t.Fatalf("crash lost selection cells: %d/6 recorded", st.SelectionRecorded())
	}

	// Resume without the fault: only the missing cells run, and the model is
	// bit-identical to the uninterrupted fit.
	cfg = ckptLassoConfig(path)
	cfg.Checkpoint.Resume = true
	resumed, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "mid-fit resume", resumed.Beta, plain.Beta)
	if resumed.Diag.LassoFits != 0 {
		t.Fatalf("resume recomputed %d selection solves", resumed.Diag.LassoFits)
	}
}

func TestCheckpointedQuorumDropsAreDurable(t *testing.T) {
	x, y, _ := makeRegression(5, 70, 10, 3, 0.3)
	drop := func(phase string, k int) error {
		if phase == "selection" && k == 1 {
			return errors.New("injected drop")
		}
		return nil
	}
	degraded, err := Lasso(x, y, &LassoConfig{
		B1: 6, B2: 4, Q: 5, Seed: 11, MinBootstrapFrac: 0.5, BootstrapFault: drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fit.uoickpt")
	cfg := &LassoConfig{
		B1: 6, B2: 4, Q: 5, Seed: 11, MinBootstrapFrac: 0.5, BootstrapFault: drop,
		Checkpoint: &CheckpointConfig{Path: path},
	}
	ck, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "degraded checkpointed vs degraded plain", ck.Beta, degraded.Beta)
	if ck.Bootstrap.B1Failed != 1 {
		t.Fatalf("dropped cell not counted: %+v", ck.Bootstrap)
	}

	// Resume WITHOUT the fault: the durable drop must not be retried, so the
	// resumed fit reproduces the degraded model, not the healthy one.
	cfg = &LassoConfig{
		B1: 6, B2: 4, Q: 5, Seed: 11, MinBootstrapFrac: 0.5,
		Checkpoint: &CheckpointConfig{Path: path, Resume: true},
	}
	resumed, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "resumed degraded fit", resumed.Beta, degraded.Beta)
	if resumed.Bootstrap.B1Failed != 1 || resumed.Bootstrap.B1Completed != 5 {
		t.Fatalf("durable drop lost on resume: %+v", resumed.Bootstrap)
	}
}

func TestCheckpointedResumeRejectsForeignOrBrokenFiles(t *testing.T) {
	x, y, _ := makeRegression(6, 60, 8, 3, 0.3)
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.uoickpt")

	// Missing file.
	cfg := ckptLassoConfig(path)
	cfg.Checkpoint.Resume = true
	if _, err := Lasso(x, y, cfg); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoint: err = %v, want fs.ErrNotExist", err)
	}

	// Checkpoint from a different fit (other seed).
	other := ckptLassoConfig(path)
	other.Seed = 999
	if _, err := Lasso(x, y, other); err != nil {
		t.Fatal(err)
	}
	if _, err := Lasso(x, y, cfg); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("foreign checkpoint: err = %v, want ErrMismatch", err)
	}

	// This fit's own checkpoint, but with cells computed by another revision
	// of the cell numerics (the gathered-Gram build): same data, seed and
	// configuration, so only the revision word of the fingerprint differs.
	if _, err := Lasso(x, y, ckptLassoConfig(path)); err != nil {
		t.Fatal(err)
	}
	own, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, c := own.Meta(), cfg.defaults()
	if meta.Fingerprint != lassoFingerprint(x, y, &c) {
		t.Fatal("fixture: the checkpoint does not carry this fit's fingerprint")
	}
	meta.Fingerprint = lassoFingerprintAt(lassoCellRevision-1, x, y, &c)
	stale := checkpoint.New(meta, own.Lambdas())
	for k := 0; k < meta.B1; k++ {
		sup, _, _ := own.Selection(k)
		stale.AddSelection(k, sup)
	}
	if err := checkpoint.Save(path, stale); err != nil {
		t.Fatal(err)
	}
	if _, err := Lasso(x, y, cfg); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("stale cell revision: err = %v, want ErrMismatch", err)
	}

	// Structurally damaged file.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Lasso(x, y, cfg); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corrupt checkpoint: err = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointedVARResumeRejectsStaleRevision is the VAR twin of the
// stale-revision case above: a journal of this very fit whose fingerprint a
// build at the previous cell-numerics revision (triangular-solve x-updates,
// no revision word) would have written is refused, not resumed.
func TestCheckpointedVARResumeRejectsStaleRevision(t *testing.T) {
	_, series := makeVARData(31, 5, 1, 300)
	path := filepath.Join(t.TempDir(), "var.uoickpt")
	cfg := VARConfig{Order: 1, B1: 4, B2: 3, Q: 5, Seed: 9, Checkpoint: &CheckpointConfig{Path: path}}
	if _, err := VAR(series, &cfg); err != nil {
		t.Fatal(err)
	}
	own, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.defaults()
	_, blockLen, err := varWindow(series.Rows, &c)
	if err != nil {
		t.Fatal(err)
	}
	meta := own.Meta()
	if meta.Fingerprint != varFingerprint(series, blockLen, &c) {
		t.Fatal("fixture: the checkpoint does not carry this fit's fingerprint")
	}
	meta.Fingerprint = varFingerprintAt(varCellRevision-1, series, blockLen, &c)
	stale := checkpoint.New(meta, own.Lambdas())
	for k := 0; k < meta.B1; k++ {
		sup, _, _ := own.Selection(k)
		stale.AddSelection(k, sup)
	}
	if err := checkpoint.Save(path, stale); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
	if _, err := VAR(series, &cfg); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("stale cell revision: err = %v, want ErrMismatch", err)
	}
}

func TestCheckpointedLassoDistributedMatchesSerial(t *testing.T) {
	x, y, _ := makeRegression(7, 80, 12, 4, 0.3)
	plain, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 4, Q: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3, 4} {
		ranks := ranks
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fit.uoickpt")
			betas := make([][]float64, ranks)
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				res, err := Lasso(x, y, lassoOn(ckptLassoConfig(path), Placement{Comm: c}))
				if err != nil {
					return err
				}
				betas[c.Rank()] = res.Beta
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				assertBitsEqual(t, fmt.Sprintf("rank %d vs serial", r), betas[r], plain.Beta)
			}
		})
	}
}

func TestCheckpointedVARMatchesSerialAndResumes(t *testing.T) {
	_, series := makeVARData(31, 5, 1, 300)
	base := &VARConfig{Order: 1, B1: 5, B2: 3, Q: 6, Seed: 9}
	plain, err := VAR(series, base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "var.uoickpt")
	cfg := *base
	cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 2}
	ck, err := VAR(series, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "checkpointed VAR vs plain", ck.Beta, plain.Beta)

	// Distributed resume on the finished checkpoint, on a different rank
	// count: nothing recomputes, bits identical.
	cfg2 := *base
	cfg2.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		res, err := VAR(series, varOn(&cfg2, Placement{Comm: c}))
		if err != nil {
			return err
		}
		if res.Diag.LassoFits != 0 || res.Diag.OLSFits != 0 {
			return fmt.Errorf("rank %d recomputed cells: %+v", c.Rank(), res.Diag)
		}
		for i := range res.Beta {
			if math.Float64bits(res.Beta[i]) != math.Float64bits(plain.Beta[i]) {
				return fmt.Errorf("rank %d beta[%d] differs", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
