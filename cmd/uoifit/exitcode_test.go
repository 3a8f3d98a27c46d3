package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"uoivar/internal/model"
)

// TestMain lets this test binary impersonate the real uoifit command: when
// re-exec'd with UOIFIT_RUN_MAIN=1 it runs main() — including flag parsing
// and os.Exit — so the exit-code contract can be asserted end to end.
func TestMain(m *testing.M) {
	if os.Getenv("UOIFIT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// uoifit re-execs the test binary as the uoifit command and returns its
// exit code and combined output.
func uoifit(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UOIFIT_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !strings.Contains(err.Error(), "exit status") {
		t.Fatalf("uoifit %v did not run: %v\n%s", args, err, out)
	}
	ee = err.(*exec.ExitError)
	return ee.ExitCode(), string(out)
}

func TestExitCodeUsageErrors(t *testing.T) {
	if code, out := uoifit(t); code != 2 {
		t.Fatalf("missing -data: exit %d, want 2\n%s", code, out)
	}
	if code, out := uoifit(t, "-data", "x.hbf", "-resume"); code != 2 || !strings.Contains(out, "-resume requires -checkpoint") {
		t.Fatalf("-resume without -checkpoint: exit %d\n%s", code, out)
	}
	if code, out := uoifit(t, "-data", "x.hbf", "-algo", "lasso-cv", "-checkpoint", "c.uoickpt"); code != 2 {
		t.Fatalf("-checkpoint with a baseline algo: exit %d\n%s", code, out)
	}
	// -pb/-pl shape the partitioned fits only; a grid or checkpointed fit
	// would silently ignore them.
	for _, args := range [][]string{
		{"-grid", "2x1", "-pb", "2"},
		{"-grid", "1x2", "-pl", "2"},
		{"-algo", "var", "-checkpoint", "c.uoickpt", "-pb", "2"},
		{"-checkpoint", "c.uoickpt", "-pl", "3"},
	} {
		if code, out := uoifit(t, append([]string{"-data", "x.hbf"}, args...)...); code != 2 || !strings.Contains(out, "-pb/-pl") {
			t.Fatalf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}
	// A placement the library cannot run is a usage error too, caught
	// before the data is read: a grid's cells are never journalled.
	for _, algo := range []string{"lasso", "var"} {
		code, out := uoifit(t, "-data", "x.hbf", "-algo", algo, "-grid", "2x1", "-checkpoint", "c.uoickpt")
		if code != 2 || !strings.Contains(out, "unsupported placement") {
			t.Fatalf("-algo %s -grid with -checkpoint: exit %d, want 2\n%s", algo, code, out)
		}
	}
	// A partitioned UoI_LASSO runs one bootstrap per rank: -pb/-pl would
	// change nothing but the time.
	for _, args := range [][]string{{"-pb", "2"}, {"-pl", "2"}} {
		code, out := uoifit(t, append([]string{"-data", "x.hbf", "-algo", "lasso", "-ranks", "2"}, args...)...)
		if code != 2 || !strings.Contains(out, "unsupported placement") {
			t.Fatalf("-algo lasso %v: exit %d, want 2\n%s", args, code, out)
		}
	}
}

// TestExitCodeFailedFitLeavesNoArtifact pins the contract the issue calls
// out: a failed fit must exit nonzero and must NOT leave a -model-out
// artifact behind.
func TestExitCodeFailedFitLeavesNoArtifact(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "m"+model.Ext)
	code, output := uoifit(t, "-algo", "lasso", "-data", filepath.Join(dir, "absent.hbf"),
		"-ranks", "1", "-model-out", out)
	if code != 1 {
		t.Fatalf("failed fit: exit %d, want 1\n%s", code, output)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("failed fit left a model artifact at %s", out)
	}
}

func TestExitCodeResumeMissingAndCorrupt(t *testing.T) {
	data := writeTestRegression(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fit.uoickpt")

	// Resume with no checkpoint on disk: typed failure, exit 1.
	code, out := uoifit(t, "-algo", "lasso", "-data", data, "-ranks", "1",
		"-b1", "3", "-b2", "2", "-q", "3", "-checkpoint", ckpt, "-resume")
	if code != 1 || !strings.Contains(out, "no such file") {
		t.Fatalf("resume of missing checkpoint: exit %d\n%s", code, out)
	}

	// Corrupt checkpoint: typed failure naming the corruption, exit 1,
	// never a panic.
	if err := os.WriteFile(ckpt, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = uoifit(t, "-algo", "lasso", "-data", data, "-ranks", "1",
		"-b1", "3", "-b2", "2", "-q", "3", "-checkpoint", ckpt, "-resume")
	if code != 1 || !strings.Contains(out, "corrupt") {
		t.Fatalf("resume of corrupt checkpoint: exit %d\n%s", code, out)
	}
	if strings.Contains(out, "panic") {
		t.Fatalf("corrupt checkpoint caused a panic:\n%s", out)
	}
}

// TestExitCodeCheckpointRoundTrip drives the documented workflow through
// the real CLI: fit with -checkpoint on 2 ranks, then -resume on 1 rank;
// both exit 0 and both write the same model artifact.
func TestExitCodeCheckpointRoundTrip(t *testing.T) {
	data := writeTestRegression(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fit.uoickpt")
	m1 := filepath.Join(dir, "a"+model.Ext)
	m2 := filepath.Join(dir, "b"+model.Ext)

	code, out := uoifit(t, "-algo", "lasso", "-data", data, "-ranks", "2",
		"-b1", "4", "-b2", "2", "-q", "4", "-checkpoint", ckpt, "-model-out", m1)
	if code != 0 {
		t.Fatalf("checkpointed fit: exit %d\n%s", code, out)
	}
	code, out = uoifit(t, "-algo", "lasso", "-data", data, "-ranks", "1",
		"-b1", "4", "-b2", "2", "-q", "4", "-checkpoint", ckpt, "-resume", "-model-out", m2)
	if code != 0 {
		t.Fatalf("resumed fit: exit %d\n%s", code, out)
	}
	a, err := model.Load(m1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := model.Load(m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Beta) != len(b.Beta) {
		t.Fatalf("artifact sizes differ: %d vs %d", len(a.Beta), len(b.Beta))
	}
	for i := range a.Beta {
		if a.Beta[i] != b.Beta[i] {
			t.Fatalf("resumed artifact differs at coefficient %d", i)
		}
	}
}
