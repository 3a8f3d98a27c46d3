package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenEncodingBytes pins the exact bytes of a fixed checkpoint: one
// completed and one dropped selection cell, one estimation winner.
func TestGoldenEncodingBytes(t *testing.T) {
	st := New(Meta{Kind: KindVAR, Seed: 5, B1: 3, B2: 2, P: 4, Q: 2, Order: 1, Intercept: true, Fingerprint: 0xfeed},
		[]float64{0.75, 0.0075})
	sup := make([]bool, 8)
	sup[2], sup[5] = true, true
	st.AddSelection(0, sup)
	st.DropSelection(2)
	st.AddEstimation(1, []float64{0, -0.5, 0, 1e-7})
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), "22ae1d530317b6eb8d1c6b4339cd449c12231285d16db7dec19d67b35c0753ec"; got != want {
		t.Fatalf("checkpoint sha256 %s, want %s", got, want)
	}
}

// TestSaveOntoDirectoryLeavesNoTemp: when the final rename fails (the
// target is a directory) Save reports the error and removes its temp file.
func TestSaveOntoDirectoryLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "fit.uoickpt")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(target, testState(t)); err == nil {
		t.Fatal("Save onto a directory succeeded")
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".uoickpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}
