#!/bin/sh
# Paper-anchor snapshot. Runs th_run table2, sweep, width and ablation
# at a short window with no store, keeps the "anchor" lines (each
# measured value beside its paper value) and diffs them against the
# committed snapshot. ablation prints no paper anchor; it runs so the
# snapshot also fails when that subcommand does.
#
#   sh tests/paper_anchors.sh TH_RUN SNAPSHOT           compare
#   sh tests/paper_anchors.sh TH_RUN SNAPSHOT --update  rewrite SNAPSHOT
set -eu
th_run=$1
snapshot=$2
unset TH_STORE_DIR

out=$(mktemp)
want=$(mktemp)
trap 'rm -f "$out" "$want"' EXIT
for cmd in table2 sweep width ablation; do
    "$th_run" "$cmd" --insts 5000 --warmup 2000 >> "$out"
done

if [ "${3:-}" = --update ]; then
    {
        echo "# Anchor lines of th_run table2, sweep, width and ablation at"
        echo "# --insts 5000 --warmup 2000 with no store. The short window"
        echo "# moves the values away from EXPERIMENTS.md's; the point is that"
        echo "# any change to them shows up here. Regenerate with:"
        echo "#   sh tests/paper_anchors.sh build/tools/th_run tests/paper_anchors.txt --update"
        grep '^anchor ' "$out"
    } > "$snapshot"
    exit 0
fi
grep -v '^#' "$snapshot" > "$want"
grep '^anchor ' "$out" | diff -u "$want" -
