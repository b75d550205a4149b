#!/bin/sh
# Regenerate the noise-vs-structure study artifacts on the synthetic shape
# corpus: the Gromov-Wasserstein coarsening study (95 s on a 2-vCPU host)
# and the attention-vs-distance study (~2 min).
#
# Usage: scripts/run_studies.sh [WORKDIR]
# Copies the CSVs into artifacts/ when run from the repo root.
set -e

WORK=${1:-/tmp/ncgn_studies}
SHAPES="$WORK/shapes"

ncgn make-shapes out_dir="$SHAPES" n_train=500 n_test=100 n_points=64 seed=0
ncgn gw-study out_dir="$WORK/gw" dataset="$SHAPES" \
    n_shapes=20 n_seeds=3 seed=0
ncgn attention-study out_dir="$WORK/att" dataset="$SHAPES" \
    attention.epochs=50 lr=0.0001 seed=0

if [ -d artifacts ]; then
    mkdir -p artifacts/gw_study artifacts/attention_study
    cp "$WORK/gw/gw.csv" "$WORK/gw/gw_argmin.csv" artifacts/gw_study/
    cp "$WORK/att/attention.csv" artifacts/attention_study/
fi
