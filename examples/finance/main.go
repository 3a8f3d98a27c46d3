// Finance: the paper's §VI S&P 500 analysis on synthetic market data.
//
// 50 companies are sampled from a 470-company sector-structured market,
// daily closes are aggregated to weekly and first-differenced, and a
// VAR(1) model is fit with UoI_VAR under strong sparsity pressure
// (B1=40, B2=5). The resulting Granger network (a graph.CSR store, its nodes
// labelled with the sampled tickers) is printed as an edge list and written
// as Graphviz DOT — the reproduction of Figure 11.
//
//	go run ./examples/finance
package main

import (
	"fmt"
	"log"
	"os"

	"uoivar/internal/experiments"
)

func main() {
	g, tickers, err := experiments.Fig11(os.Stdout, 2013)
	if err != nil {
		log.Fatal(err)
	}
	const out = "fig11.dot"
	if err := os.WriteFile(out, []byte(g.DOT("sp500", tickers)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGraphviz network written to %s (render with: dot -Tpdf %s -o fig11.pdf)\n", out, out)
	fmt.Printf("density: %.4f — compare a dense VAR's 1.0\n", g.Density())
}
