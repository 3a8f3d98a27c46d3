package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type served on
// /metrics.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteExposition renders the registry in Prometheus text format, version
// 0.0.4: families sorted by name, series sorted by label values, HELP and
// TYPE comments first, histogram series expanded into cumulative _bucket
// rows plus _sum and _count. OnScrape hooks run first, so values published
// at scrape time are current. The output round-trips through ParseExposition.
func (r *Registry) WriteExposition(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runScrapeHooks()

	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Expose renders the registry to a string (the test/bench convenience).
func (r *Registry) Expose() string {
	var sb strings.Builder
	r.WriteExposition(&sb) //nolint:errcheck // strings.Builder cannot fail
	return sb.String()
}

// Handler returns a GET /metrics handler that renders each registry in
// turn (nil registries contribute nothing). The registries must not share
// a family name; each one's families stay sorted by name.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "metrics requires GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		for _, r := range regs {
			if r.WriteExposition(w) != nil {
				return // client hangup
			}
		}
	})
}

func (f *family) write(w *bufio.Writer) error {
	ser := f.snapshot()
	if len(ser) == 0 {
		return nil
	}
	sort.Slice(ser, func(i, j int) bool {
		return seriesKey(ser[i].labelValues) < seriesKey(ser[j].labelValues)
	})
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	for _, s := range ser {
		if err := f.writeSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeSeries(w *bufio.Writer, s *series) error {
	switch f.typ {
	case TypeHistogram:
		var cum uint64
		for i := range s.counts {
			cum += s.counts[i].Load()
			le := "+Inf"
			if i < len(f.buckets) {
				le = formatFloat(f.buckets[i])
			}
			if err := writeSample(w, f.name+"_bucket", f.labelNames, s.labelValues,
				"le", le, float64(cum)); err != nil {
				return err
			}
		}
		if err := writeSample(w, f.name+"_sum", f.labelNames, s.labelValues,
			"", "", math.Float64frombits(s.sumBits.Load())); err != nil {
			return err
		}
		return writeSample(w, f.name+"_count", f.labelNames, s.labelValues,
			"", "", float64(cum))
	default:
		return writeSample(w, f.name, f.labelNames, s.labelValues, "", "",
			math.Float64frombits(s.valBits.Load()))
	}
}

// writeSample emits one sample line, appending an optional extra label
// (the histogram "le").
func writeSample(w *bufio.Writer, name string, labelNames, labelValues []string, extraName, extraValue string, v float64) error {
	if _, err := w.WriteString(name); err != nil {
		return err
	}
	if len(labelNames) > 0 || extraName != "" {
		w.WriteByte('{') //nolint:errcheck // checked at flush
		first := true
		for i, ln := range labelNames {
			if !first {
				w.WriteByte(',') //nolint:errcheck
			}
			first = false
			// %q yields exactly the exposition-format label escaping:
			// backslash, quote, and newline escaped, everything else verbatim.
			fmt.Fprintf(w, "%s=%q", ln, labelValues[i]) //nolint:errcheck
		}
		if extraName != "" {
			if !first {
				w.WriteByte(',') //nolint:errcheck
			}
			fmt.Fprintf(w, "%s=%q", extraName, extraValue) //nolint:errcheck
		}
		w.WriteByte('}') //nolint:errcheck
	}
	_, err := fmt.Fprintf(w, " %s\n", formatFloat(v))
	return err
}

// formatFloat renders a sample value: shortest round-trip representation,
// with +Inf/-Inf/NaN in the exposition-format spellings.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string (backslash and newline only; quotes are
// legal there).
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}
