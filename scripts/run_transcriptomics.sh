#!/bin/sh
# End-to-end transcriptomics benchmark at the scaled-down size:
# 2000 train / 400 test simulated graphs, DMP vs knn_fixed vs random
# generations, unconditional sampling, pooled-subsample W2.
#
# Usage: scripts/run_transcriptomics.sh [WORKDIR]
# Writes metrics.csv per method under WORKDIR and copies the three metric
# files into artifacts/transcriptomics/ when run from the repo root.
set -e

WORK=${1:-/tmp/ncgn_transcriptomics}
DATA="$WORK/data"

ncgn simulate-data out_dir="$DATA" n_train=2000 n_test=400 seed=0

for METHOD in dmp knn_fixed; do
    OUT="$WORK/$METHOD"
    ncgn train out_dir="$OUT" dataset="$DATA" method="$METHOD" \
        epochs=100 batch=128 hdim=32 layers=3 seed=0
    # sample and eval read the model keys from the record in $OUT/ema.ckpt
    ncgn sample out_dir="$OUT" dataset="$DATA" seed=0
    ncgn eval out_dir="$OUT" dataset="$DATA" seed=0
done

OUT="$WORK/random_pred"
ncgn sample out_dir="$OUT" dataset="$DATA" method=random_pred seed=0
ncgn eval out_dir="$OUT" dataset="$DATA" method=random_pred seed=0

if [ -d artifacts ]; then
    mkdir -p artifacts/transcriptomics
    for METHOD in dmp knn_fixed random_pred; do
        cp "$WORK/$METHOD/metrics.csv" "artifacts/transcriptomics/$METHOD.csv"
    done
fi
