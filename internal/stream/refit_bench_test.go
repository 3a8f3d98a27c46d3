package stream

import (
	"testing"

	"uoivar/internal/datagen"
	"uoivar/internal/model"
	"uoivar/internal/serve"
	"uoivar/internal/uoi"
)

// BenchmarkStreamRefit times one streaming refit at the repository
// benchmark's stream_serve shape: a 40-series MakeFinance model, a 768-row
// window sliding 16 rows per refit, B1 8, B2 4, Q 8. Each op ingests one
// slide (untimed) and runs RefitNow, which warm-starts from the previous
// refit and anchors the bootstraps as every background refit does, then
// publishes into the registry. The cold first refit is untimed.
func BenchmarkStreamRefit(b *testing.B) {
	const p, window, slide = 40, 768, 16
	series := datagen.MakeFinance(11, p, window+slide*b.N, nil).Series
	cfg := &uoi.VARConfig{Order: 1, B1: 8, B2: 4, Q: 8, Seed: 3}
	res, err := uoi.VAR(series.SubRows(0, window), cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.Set("fin", model.FromVAR(res, cfg), ""); err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(Config{Name: "fin", Registry: reg, Base: *cfg, Window: window})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Ingest(rowsOf(series, 0, window)); err != nil {
		b.Fatal(err)
	}
	if _, err := e.RefitNow(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := window + slide*i
		b.StopTimer()
		if _, err := e.Ingest(rowsOf(series, lo, lo+slide)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.RefitNow(); err != nil {
			b.Fatal(err)
		}
	}
}
