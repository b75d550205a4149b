#!/bin/sh
# Small seeded CLI sequence whose outputs pin the pipeline's numerics:
# datasets, the GW and attention studies, and train/sample/eval for cfm,
# a masked task, two sampling chunks, a masked run over two chunks, a
# column mask (gene_knockout), GAT on positions, a non-default schedule
# kind, every baseline (knn_fixed, fully_connected, long_short) and
# random_pred. Every file it writes is deterministic, so two
# source trees that compute the same numbers give byte-identical output
# directories.
#
# Usage: scripts/seeded_outputs.sh SRC_DIR OUT_DIR
#        scripts/seeded_outputs.sh --check SRC_DIR
# SRC_DIR is the directory holding the ncgn package (a checkout's src/).
# --check writes into a temporary directory and compares it with the
# checked-in record scripts/seeded_outputs.sha256, naming each file that
# differs, is missing or is extra (exit 1), and an environment that
# differs from the record's. A change that moves outputs rewrites the
# record in the same commit:
#   scripts/seeded_outputs.sh src /tmp/new
#   python3 scripts/seeded_diff.py --digests /tmp/new > scripts/seeded_outputs.sha256
# Compare two trees with
#   scripts/seeded_outputs.sh old/src /tmp/old
#   scripts/seeded_outputs.sh new/src /tmp/new
#   diff -r -x config.resolved /tmp/old /tmp/new
# config.resolved is excluded because it records the output paths. Where
# numbers are expected to move, compare by value instead:
#   python3 scripts/seeded_diff.py /tmp/old /tmp/new
# prints each differing file's largest deviation, and exits 0 when every
# difference is numeric.
set -e

HERE=$(cd "$(dirname "$0")" && pwd)
if [ $# -eq 2 ] && [ "$1" = --check ]; then
    SRC=$(cd "$2" && pwd)
    OUT=$(mktemp -d)
    trap 'rm -rf "$OUT"' EXIT
elif [ $# -eq 2 ]; then
    SRC=$(cd "$1" && pwd)
    OUT=$2
    mkdir -p "$OUT"
else
    echo "usage: $0 SRC_DIR OUT_DIR | --check SRC_DIR" >&2
    exit 2
fi

ncgn() {
    PYTHONPATH="$SRC" "${PYTHON:-python3}" -m ncgn.cli "$@" >/dev/null
}

ncgn make-shapes out_dir="$OUT/shapes" n_train=4 n_test=2 n_points=16 seed=0
ncgn simulate-data out_dir="$OUT/data" n_train=4 n_test=2 seed=0
ncgn gw-study out_dir="$OUT/gw" dataset="$OUT/shapes" n_shapes=2 n_seeds=1 \
    gw.iters=5 seed=3
ncgn attention-study out_dir="$OUT/att" dataset="$OUT/shapes" \
    attention.epochs=1 attention.bins=4 seed=3

COMMON="epochs=1 batch=2 warmup_epochs=0 hdim=8 layers=1 nfes=2 seed=3"

# run NAME DATASET [key=value ...]: train, sample and eval into OUT/NAME
run() {
    name=$1
    data=$2
    shift 2
    ncgn train out_dir="$OUT/$name" dataset="$OUT/$data" $COMMON "$@"
    ncgn sample out_dir="$OUT/$name" dataset="$OUT/$data" $COMMON "$@"
    ncgn eval out_dir="$OUT/$name" dataset="$OUT/$data" $COMMON "$@"
}

run cfm data
run masked data mask_task=temporal_trajectory
run chunks data n_samples=70
run masked_chunks data n_samples=70 mask_task=temporal_trajectory
run knockout data mask_task=gene_knockout
run positions_gat shapes task=positions mp_kind=gat
run linear_schedule data schedule.kind=linear
run knn_fixed data method=knn_fixed
run fully_connected data method=fully_connected
run long_short data method=long_short

# random_pred is model-free: no train step
ncgn sample out_dir="$OUT/random_pred" dataset="$OUT/data" method=random_pred seed=3
ncgn eval out_dir="$OUT/random_pred" dataset="$OUT/data" method=random_pred seed=3

if [ "$1" = --check ]; then
    "${PYTHON:-python3}" "$HERE/seeded_diff.py" --check "$HERE/seeded_outputs.sha256" "$OUT"
fi
