package uoi

import (
	"sort"

	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// RankPerf joins one rank's phase spans and counters (its tracer) with its
// communication meters (the mpi runtime's per-rank Stats) into a finalized
// PerfReport rank entry: CommSeconds is the metered time inside mpi calls,
// ComputeSeconds the top-level phase total minus CommSeconds — the disjoint
// computation-vs-communication split of the paper's Figures 2 and 7.
//
// The mpi meters are cumulative since the world started, so call this once
// per fit, on a fresh world, after the fit returns (typically right before
// the rank's mpi.Run body exits).
// When the tracer carries an event recorder, the entry also gets the schema
// v2 fields: this rank's rows of the per-pair communication matrix (its
// outgoing traffic as "send" rows, incoming as "recv" rows) and the
// recorder's ring-eviction count.
func RankPerf(comm *mpi.Comm, tr *trace.Tracer) trace.RankPerf {
	rp := tr.RankPerf(comm.Rank())
	st := comm.LocalStats()
	rp.Comm = st.Rows("")
	rp.FinalizeCompute()
	// Per-communicator attribution (grid fits label their world comm and
	// row sub-comm): breakdown rows like "p2p[row]" appended after
	// FinalizeCompute so they never double-count CommSeconds — every labeled
	// second is already inside the unlabeled aggregate above.
	labeled := comm.LocalLabelStats()
	labels := make([]string, 0, len(labeled))
	for l := range labeled {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, label := range labels {
		ls := labeled[label]
		rp.Comm = append(rp.Comm, ls.Rows("["+label+"]")...)
	}
	if rec := tr.EventRecorder(); rec != nil {
		rp.DroppedEvents = rec.Dropped()
		me := comm.WorldRank()
		for _, pf := range comm.CommMatrix() {
			if pf.Src == me && pf.SendCalls > 0 {
				rp.AddPeer(pf.Dst, pf.Category.String(), "send",
					pf.SendCalls, pf.SendBytes, pf.SendTime.Seconds())
			}
			if pf.Dst == me && pf.RecvCalls > 0 {
				rp.AddPeer(pf.Src, pf.Category.String(), "recv",
					pf.RecvCalls, pf.RecvBytes, pf.RecvTime.Seconds())
			}
		}
	}
	return rp
}
