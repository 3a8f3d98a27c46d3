#!/usr/bin/env bash
# End-to-end smoke test of the 2-D (bootstrap × λ) grid engine: generate a
# dataset, fit it at two different grid shapes, and verify
#   1. the fitted models are byte-for-byte identical across shapes (the
#      bit-identity invariant),
#   2. each fit's PerfReport parses through trace.ParsePerfReport and
#      carries per-communicator ("collective[world]"/"p2p[row]")
#      attribution, and
#   3. the CLI dispatches its flags to the right placement: a checkpointed
#      -ranks 3 fit, which the journal runs, writes the same model as a grid
#      fit, for UoI_LASSO and for UoI_VAR; so does a partitioned UoI_VAR fit
#      whose two reader ranks hold the series, and a partitioned UoI_LASSO
#      fit on one rank, whose single row block is the file in order.
# Exits nonzero if any step fails or any artifact differs.
set -euo pipefail

GO=${GO:-go}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== generate =="
"$GO" run ./cmd/uoigen -kind regression -n 400 -p 24 -seed 7 -o "$WORK/data.hbf"

fit() { # fit <tag> <grid>
  local tag=$1 grid=$2
  "$GO" run ./cmd/uoifit -algo lasso -data "$WORK/data.hbf" \
    -grid "$grid" -b1 8 -b2 4 -q 6 -seed 3 \
    -model-out "$WORK/$tag.uoim" -perf-report "$WORK/$tag.perf.json" \
    > "$WORK/$tag.out"
}

echo "== fit at 4x2 and 1x8 =="
fit grid4x2 4x2
fit grid1x8 1x8

echo "== bit-identity: model artifacts must match byte for byte =="
cmp "$WORK/grid4x2.uoim" "$WORK/grid1x8.uoim"
# The human-readable fit summaries (support, coefficients) must agree too —
# minus the wall-time line, which legitimately varies run to run.
for tag in grid4x2 grid1x8; do
  grep -v -e '^selection ' -e '^model artifact written' -e '^perf report written' \
    "$WORK/$tag.out" > "$WORK/$tag.out.stable"
done
cmp "$WORK/grid4x2.out.stable" "$WORK/grid1x8.out.stable"

echo "== perf reports parse and carry grid comm attribution =="
# Both shapes reassemble with the world Allreduce and Allgather; at 4x2 each
# rank also hands the warm-start pipeline across its row.
"$GO" run ./scripts/perfcheck -ranks 8 -require-comm 'collective[world],p2p[row]' "$WORK/grid4x2.perf.json"
"$GO" run ./scripts/perfcheck -ranks 8 -require-comm 'collective[world]' "$WORK/grid1x8.perf.json"

echo "== placement dispatch: the journal and the partitioned fits match the grid =="
"$GO" run ./cmd/uoifit -algo lasso -data "$WORK/data.hbf" -ranks 3 \
  -checkpoint "$WORK/lasso.uoickpt" -b1 8 -b2 4 -q 6 -seed 3 \
  -model-out "$WORK/ckpt3.uoim" > /dev/null
cmp "$WORK/grid4x2.uoim" "$WORK/ckpt3.uoim"
# The artifact records no placement, so the 1-rank partitioned fit (shared
# statistics over the one contiguous block) must write the same bytes.
"$GO" run ./cmd/uoifit -algo lasso -data "$WORK/data.hbf" -ranks 1 -dist conventional \
  -b1 8 -b2 4 -q 6 -seed 3 -model-out "$WORK/part1.uoim" > /dev/null
cmp "$WORK/grid4x2.uoim" "$WORK/part1.uoim"
"$GO" run ./cmd/uoigen -kind var -n 300 -p 6 -order 1 -seed 5 -o "$WORK/var.hbf"
varfit() { # varfit <tag> <placement flags...>
  local tag=$1
  shift
  "$GO" run ./cmd/uoifit -algo var -data "$WORK/var.hbf" -b1 6 -b2 3 -q 5 -seed 2 \
    -model-out "$WORK/$tag.uoim" "$@" > /dev/null
}
varfit vargrid2x2 -grid 2x2
varfit varckpt3 -ranks 3 -checkpoint "$WORK/var.uoickpt"
cmp "$WORK/vargrid2x2.uoim" "$WORK/varckpt3.uoim"
varfit varpart4 -ranks 4 -readers 2
cmp "$WORK/vargrid2x2.uoim" "$WORK/varpart4.uoim"

echo "grid smoke passed"
