package model

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
)

// goldenVAR and goldenLasso are fixed hand-built artifacts; their encodings
// are pinned by SHA-256 so any change to the container or the coefficient
// layout fails loudly.
func goldenVAR() *Artifact {
	a := &Artifact{
		Meta: Meta{
			Schema: Schema, Kind: KindVAR, P: 3, Order: 2, Intercept: true, Seed: 11,
			Config: FitConfig{B1: 8, B2: 4, Q: 6, LambdaRatio: 1e-3, SelectionFrac: 1},
			Stats:  SelectionStats{SupportSize: 3, Lambdas: 6},
		},
		A:  []*mat.Dense{mat.NewDense(3, 3), mat.NewDense(3, 3)},
		Mu: []float64{0.125, -0.5, 0},
	}
	a.A[0].Set(0, 1, 0.5)
	a.A[0].Set(2, 0, -1.75)
	a.A[1].Set(1, 1, 3e-9)
	return a
}

func goldenLasso() *Artifact {
	return &Artifact{
		Meta: Meta{
			Schema: Schema, Kind: KindLasso, P: 5, Intercept: true, Seed: 4,
			Config: FitConfig{B1: 10, B2: 5, Q: 8, L2: 0.5},
			Stats:  SelectionStats{SupportSize: 2, Lambdas: 8, B1Completed: 10, B2Completed: 4, B2Failed: 1},
		},
		Beta:      []float64{0, 2.5, 0, 0, -0.0625},
		Intercept: 1.5,
	}
}

func sha(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// TestGoldenEncodingBytes pins the exact bytes of both artifact kinds.
func TestGoldenEncodingBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		art  *Artifact
		want string
	}{
		{"var", goldenVAR(), "30da60e0ea5e740755b70b137ef562aec8b6a15ce0d9c8d04dd5d85119af12ca"},
		{"lasso", goldenLasso(), "d15a5b3238232f6865a0dd92f658fbcc346127dc27b7f9d410e563fde6e48799"},
	} {
		data, err := tc.art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(data); got != tc.want {
			t.Errorf("%s artifact sha256 %s, want %s", tc.name, got, tc.want)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if sha(again) != sha(data) {
			t.Errorf("%s artifact does not re-encode to the same bytes", tc.name)
		}
	}
}

// TestCrossFormatRejected: a checkpoint is not a model artifact and a model
// artifact is not a checkpoint; each decoder refuses the other's bytes with
// its own sentinel.
func TestCrossFormatRejected(t *testing.T) {
	st := checkpoint.New(checkpoint.Meta{Kind: checkpoint.KindLasso, Seed: 1, B1: 2, B2: 2, P: 3, Q: 1},
		[]float64{0.5})
	ckpt, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Decode(ckpt)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("model.Decode(checkpoint) = %v, want ErrCorrupt bad magic", err)
	}
	if errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrSchema) {
		t.Fatalf("model.Decode(checkpoint) = %v carries a checkpoint sentinel", err)
	}

	art, err := goldenVAR().Encode()
	if err != nil {
		t.Fatal(err)
	}
	_, err = checkpoint.Decode(art)
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("checkpoint.Decode(model) = %v, want checkpoint.ErrCorrupt", err)
	}
	if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrSchema) {
		t.Fatalf("checkpoint.Decode(model) = %v carries a model sentinel", err)
	}
}

// TestSaveOntoDirectoryLeavesNoTemp: when the final rename fails (the
// target is a directory) Save reports the error and removes its temp file.
func TestSaveOntoDirectoryLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "m"+Ext)
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(target, goldenVAR()); err == nil {
		t.Fatal("Save onto a directory succeeded")
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".uoim-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}
