#!/usr/bin/env python3
"""Regenerate one group of the full-size study artifacts and their record.

Usage: python3 scripts/artifacts.py studies|transcriptomics

``GROUPS`` holds each group's ``ncgn`` sequence once, as argv lists, and the
CSVs it copies into artifacts/:
- ``studies``: the shape corpus, the Gromov-Wasserstein coarsening study
  (gw_study/) and the attention-vs-distance study (attention_study/);
- ``transcriptomics``: the simulated dataset (2,000 train / 400 test
  graphs), train/sample/eval for ``dmp`` and ``knn_fixed``, then the
  model-free ``random_pred`` (transcriptomics/, one metrics file per
  method). ``sample`` and ``eval`` read the model keys from the record in
  each method's ema.ckpt.

The sequence runs in this process through ``seeded_outputs.run``, on the
ncgn package of this checkout's src/ (exit 2 if ``ncgn`` comes from
elsewhere), into a temporary directory; the first command that exits
non-zero stops it and is named (exit 1), and artifacts/ is left as it was.
Then scripts/artifacts.sha256 is rewritten with
``seeded_diff.digests(artifacts/)``, the format of
scripts/seeded_outputs.sha256, so
  python3 scripts/seeded_diff.py --check scripts/artifacts.sha256 artifacts
checks the checked-in CSVs. The run prints its wall time, which the record
leaves out so that it stays deterministic.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

from seeded_outputs import run, use_source

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ROOT / "artifacts"
RECORD = ROOT / "scripts" / "artifacts.sha256"
STUDIES = [
    ["make-shapes", "out_dir={out}/shapes", "n_train=500", "n_test=100",
     "n_points=64", "seed=0"],
    ["gw-study", "out_dir={out}/gw", "dataset={out}/shapes", "n_shapes=20",
     "n_seeds=3", "seed=0"],
    ["attention-study", "out_dir={out}/att", "dataset={out}/shapes",
     "attention.epochs=50", "lr=0.0001", "seed=0"],
]
MODELS = ["dmp", "knn_fixed"]
TRAIN = ["epochs=100", "batch=128", "hdim=32", "layers=3"]
TRANSCRIPTOMICS = [
    ["simulate-data", "out_dir={out}/data", "n_train=2000", "n_test=400",
     "seed=0"],
    *([command, f"out_dir={{out}}/{method}", "dataset={out}/data", *keys,
       "seed=0"]
      for method in MODELS
      for command, keys in (("train", [f"method={method}", *TRAIN]),
                            ("sample", []), ("eval", []))),
    *([command, "out_dir={out}/random_pred", "dataset={out}/data",
       "method=random_pred", "seed=0"] for command in ("sample", "eval")),
]
# group: (sequence, {output under {out}: artifact under artifacts/})
GROUPS = {
    "studies": (STUDIES, {"gw/gw.csv": "gw_study/gw.csv",
                          "gw/gw_argmin.csv": "gw_study/gw_argmin.csv",
                          "att/attention.csv": "attention_study/attention.csv"}),
    "transcriptomics": (TRANSCRIPTOMICS, {
        f"{method}/metrics.csv": f"transcriptomics/{method}.csv"
        for method in [*MODELS, "random_pred"]}),
}


def main(argv):
    if len(argv) != 2 or argv[1] not in GROUPS:
        print(f"usage: {argv[0]} {'|'.join(GROUPS)}", file=sys.stderr)
        return 2
    error = use_source(ROOT / "src")
    if error:
        print(f"{argv[0]}: {error}", file=sys.stderr)
        return 2
    import seeded_diff

    sequence, copies = GROUPS[argv[1]]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run(sequence, Path(tmp))
        except RuntimeError as exc:
            print(f"{argv[0]}: {exc}", file=sys.stderr)
            return 1
        for output, artifact in copies.items():
            (ARTIFACTS / artifact).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / output, ARTIFACTS / artifact)
    RECORD.write_text(seeded_diff.digests(ARTIFACTS))
    print(f"{argv[1]}: wrote {len(copies)} files under {ARTIFACTS} in "
          f"{time.perf_counter() - start:.0f} s; record {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
