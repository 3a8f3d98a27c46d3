package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uoivar/internal/datagen"
	"uoivar/internal/mpi"
	"uoivar/internal/serve"
	"uoivar/internal/uoi"
)

// benchGraph measures the whole-network causal-analytics path end to end:
// the rank-sharded all-pairs inference driver at 1024 channels (1 vs 4
// ranks, sequential per rank so the delta is the sharding speedup), and
// the /v1/graph/topk query layer under closed-loop load.
func benchGraph(report *Report, short bool) error {
	// ---- all-pairs inference over a 1024-channel sparse network ----

	const p = 1024
	n, nb, q, screen := 768, 3, 5, 24
	if short {
		n, nb, q, screen = 384, 2, 3, 8
	}
	sv := datagen.MakeSparseVAR(5, p, n, nil)
	for _, ranks := range []int{1, 4} {
		ranks := ranks
		report.bench(fmt.Sprintf("graph/allpairs-c%d-r%d", p, ranks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := mpi.Run(ranks, func(c *mpi.Comm) error {
					_, err := uoi.AllPairs(sv.Series, &uoi.AllPairsConfig{
						NB: nb, Q: q, Screen: screen, Seed: 11, Workers: 1,
						Placement: &uoi.Placement{Comm: c},
					})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// ---- /v1/graph/topk under closed-loop load ----

	art := benchArtifact(p)
	total, conc := 480, 8
	if short {
		total = 120
	}
	// Distinct k per request defeats the response LRU, so the row measures
	// the query path (store lookup + heap top-k + encode), not memoization;
	// the CSR store itself is built once and shared, as in production.
	bodies := make([][]byte, total)
	for i := range bodies {
		b, err := json.Marshal(serve.GraphTopKRequest{Model: "bench", K: 1 + i, Tol: 1e-3})
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	reg := serve.NewRegistry()
	if _, err := reg.Set("bench", art, ""); err != nil {
		return err
	}
	s := serve.New(serve.Config{Registry: reg, CacheEntries: -1, MaxInflight: 2 * conc})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer s.Close()
	url := "http://" + addr + "/v1/graph/topk"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conc + 8}}

	var next atomic.Int64
	latencies := make([]float64, total)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					firstErr.CompareAndSwap(nil, fmt.Errorf("graph bench: status %d", resp.StatusCode))
					return
				}
				latencies[i] = time.Since(t0).Seconds() * 1e3
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}

	sort.Float64s(latencies)
	row := ServingResult{
		Name:        "graph/topk-qps",
		Concurrency: conc,
		Requests:    total,
		QPS:         float64(total) / wall.Seconds(),
		P50Ms:       latencies[total/2],
		P99Ms:       latencies[total*99/100],
		Coalescing:  1,
	}
	report.Serving = append(report.Serving, row)
	fmt.Fprintf(os.Stderr, "%-40s %10.0f qps  p50 %6.2fms  p99 %6.2fms\n",
		row.Name, row.QPS, row.P50Ms, row.P99Ms)
	return nil
}
