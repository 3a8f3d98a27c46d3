package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"uoivar/internal/graph"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper must have a registered driver.
	want := []string{
		"tab1", "tab2", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11",
		"finance470", "neuro192",
		"tab2-mini", "fig2-mini", "fig7-mini", "baseline-compare", "bias-variance", "var-accuracy", "scaling-mini",
	}
	for _, name := range want {
		if _, ok := Get(name); !ok {
			t.Fatalf("missing driver %q", name)
		}
	}
	if len(List()) < len(want) {
		t.Fatalf("registry has %d drivers, want ≥ %d", len(List()), len(want))
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown driver must not resolve")
	}
}

func TestModelDriversProduceOutput(t *testing.T) {
	// All model-backed drivers are cheap; run each and sanity-check output.
	for _, name := range []string{
		"tab1", "tab2", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "finance470", "neuro192",
	} {
		d, _ := Get(name)
		var buf bytes.Buffer
		if err := d.Run(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() < 40 {
			t.Fatalf("%s produced suspiciously little output: %q", name, buf.String())
		}
	}
}

func TestTab2OutputOrdering(t *testing.T) {
	d, _ := Get("tab2")
	var buf bytes.Buffer
	if err := d.Run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, size := range []string{"16GB", "128GB", "512GB", "1TB"} {
		if !strings.Contains(out, size) {
			t.Fatalf("tab2 missing %s row:\n%s", size, out)
		}
	}
}

func TestFunctionalMiniDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("functional minis take a few seconds")
	}
	for _, name := range []string{"tab2-mini", "fig2-mini", "fig7-mini"} {
		d, _ := Get(name)
		var buf bytes.Buffer
		if err := d.Run(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

func TestFig11SparseNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 runs the full 50-company UoI_VAR fit")
	}
	g, labels, err := Fig11(io.Discard, 2013)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: "quite sparse, with fewer than 40 edges" out of
	// 2,450 possible.
	if g.NumEdges() == 0 {
		t.Fatal("empty network — selection collapsed")
	}
	if g.NumEdges() >= 40 {
		t.Fatalf("network has %d edges, want < 40", g.NumEdges())
	}
	// A hub structure exists (some node with degree ≥ 3, echoing the
	// Google-dependence finding).
	max := 0
	for i := 0; i < g.N; i++ {
		if s := g.Node(i); s.InDegree+s.OutDegree > max {
			max = s.InDegree + s.OutDegree
		}
	}
	if max < 3 {
		t.Fatalf("no hub: max degree %d", max)
	}
	// DOT export renders.
	dot := g.DOT("fig11", labels)
	if !strings.Contains(dot, "->") {
		t.Fatal("DOT missing edges")
	}
}

// TestTopByDegree: Fig. 11's hub ranking orders nodes by total degree,
// ties by index, and caps k at the node count.
func TestTopByDegree(t *testing.T) {
	g, err := graph.Build(4, []graph.Edge{
		{From: 1, To: 0, Weight: 0.5}, {From: 2, To: 0, Weight: 0.3}, {From: 3, To: 2, Weight: 0.9},
	}, graph.DupLast)
	if err != nil {
		t.Fatal(err)
	}
	top := topByDegree(g, 2)
	if len(top) != 2 || top[0] != 0 || top[1] != 2 {
		t.Fatalf("top = %v", top)
	}
	all := topByDegree(g, 99)
	if len(all) != 4 {
		t.Fatalf("top overflow = %v", all)
	}
}

func TestBiasVarianceOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("bias-variance runs 12 replicates of three methods")
	}
	d, _ := Get("bias-variance")
	var buf bytes.Buffer
	if err := d.Run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Parse the three method rows.
	parse := func(name string) (fp, bias, rmse float64) {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, name) {
				fields := strings.Fields(line)
				if len(fields) < 5 {
					t.Fatalf("row for %q malformed: %q", name, line)
				}
				// The last five fields are FP, FN, |bias|, sd, RMSE.
				tail := fields[len(fields)-5:]
				fmt.Sscanf(tail[0], "%f", &fp)
				fmt.Sscanf(tail[2], "%f", &bias)
				fmt.Sscanf(tail[4], "%f", &rmse)
				return
			}
		}
		t.Fatalf("missing row for %q:\n%s", name, out)
		return
	}
	uoiFP, uoiBias, uoiRMSE := parse("UoI_LASSO")
	cvFP, cvBias, cvRMSE := parse("LASSO-CV")
	ridgeFP, _, _ := parse("Ridge")
	if uoiFP > cvFP {
		t.Fatalf("UoI FP %v > CV %v", uoiFP, cvFP)
	}
	if uoiBias > cvBias {
		t.Fatalf("UoI bias %v > CV %v", uoiBias, cvBias)
	}
	if uoiRMSE > cvRMSE {
		t.Fatalf("UoI RMSE %v > CV %v", uoiRMSE, cvRMSE)
	}
	if ridgeFP <= cvFP {
		t.Fatalf("Ridge FP %v should exceed sparse methods (CV %v)", ridgeFP, cvFP)
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	files, err := WriteCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 6 {
		t.Fatalf("wrote %d files, want 6", len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 4 {
			t.Fatalf("%s has only %d lines", f, len(lines))
		}
		// Every row has the same column count as the header.
		want := len(strings.Split(lines[0], ","))
		for i, l := range lines {
			if got := len(strings.Split(l, ",")); got != want {
				t.Fatalf("%s line %d has %d columns, header %d", f, i, got, want)
			}
		}
	}
}

func TestVarAccuracyUoIBeatsCV(t *testing.T) {
	if testing.Short() {
		t.Skip("var-accuracy sweeps three network sizes")
	}
	d, ok := Get("var-accuracy")
	if !ok {
		t.Fatal("missing var-accuracy driver")
	}
	var buf bytes.Buffer
	if err := d.Run(&buf); err != nil {
		t.Fatal(err)
	}
	var uoiF1, cvF1 float64
	var nUoI, nCV int
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 7 {
			continue
		}
		var f1 float64
		if _, err := fmt.Sscanf(fields[4], "%f", &f1); err != nil {
			continue
		}
		switch fields[2] {
		case "UoI_VAR":
			uoiF1 += f1
			nUoI++
		case "VAR-LassoCV":
			cvF1 += f1
			nCV++
		}
	}
	if nUoI == 0 || nCV != nUoI {
		t.Fatalf("parsed %d UoI rows, %d CV rows:\n%s", nUoI, nCV, buf.String())
	}
	if uoiF1/float64(nUoI) <= cvF1/float64(nCV) {
		t.Fatalf("mean UoI F1 %.3f must exceed CV %.3f", uoiF1/float64(nUoI), cvF1/float64(nCV))
	}
}
