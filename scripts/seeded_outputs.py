#!/usr/bin/env python3
"""Run a small seeded CLI sequence whose outputs pin the pipeline's numerics.

Usage: python3 scripts/seeded_outputs.py SRC_DIR OUT_DIR
       python3 scripts/seeded_outputs.py --check SRC_DIR

``SEQUENCE`` writes datasets, the theory, GW and attention studies, and
train/sample/eval for cfm, a masked task, two sampling chunks, a masked run
over two chunks, a column mask (gene_knockout), GAT on positions, a
non-default schedule kind, every baseline and random_pred. Every file it
writes is deterministic, so two source trees that compute the same numbers
give byte-identical output directories. The commands run in this process
through ``ncgn.cli.main``, their standard output discarded; the first that
exits non-zero stops the run and is named (exit 1). ``run`` and
``use_source`` also run scripts/artifacts.py's full-size sequences.

SRC_DIR holds the ncgn package (a checkout's src/); the run exits 2 if
``ncgn`` is imported from anywhere else, or if OUT_DIR holds files, which
would be counted as outputs. ``--check`` runs into a temporary directory and
compares it with the record scripts/seeded_outputs.sha256 by
``seeded_diff.check``, exiting 1 if a file differs, is missing or is extra.
A change that moves outputs rewrites the record in the same commit:
  python3 scripts/seeded_outputs.py src /tmp/new
  python3 scripts/seeded_diff.py --digests /tmp/new > scripts/seeded_outputs.sha256
``python3 scripts/seeded_diff.py OLD NEW`` compares two runs by value.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

RECORD = Path(__file__).resolve().parent / "seeded_outputs.sha256"
COMMON = ["epochs=1", "batch=2", "warmup_epochs=0", "hdim=8", "layers=1",
          "nfes=2", "seed=3"]
# (name, dataset, keys): train, sample and eval into {out}/name
MODEL_RUNS = [
    ("cfm", "data", []),
    ("masked", "data", ["mask_task=temporal_trajectory"]),
    ("chunks", "data", ["n_samples=70"]),
    ("masked_chunks", "data", ["n_samples=70", "mask_task=temporal_trajectory"]),
    ("knockout", "data", ["mask_task=gene_knockout"]),
    ("positions_gat", "shapes", ["task=positions", "mp_kind=gat"]),
    ("linear_schedule", "data", ["schedule.kind=linear"]),
    ("knn_fixed", "data", ["method=knn_fixed"]),
    ("fully_connected", "data", ["method=fully_connected"]),
    ("long_short", "data", ["method=long_short"]),
]
# argv lists of ``ncgn``, in order, under the output root {out}
SEQUENCE = [
    ["make-shapes", "out_dir={out}/shapes", "n_train=4", "n_test=2",
     "n_points=16", "seed=0"],
    ["simulate-data", "out_dir={out}/data", "n_train=4", "n_test=2", "seed=0"],
    ["theory", "out_dir={out}/theory", "seed=3"],
    ["gw-study", "out_dir={out}/gw", "dataset={out}/shapes", "n_shapes=2",
     "n_seeds=1", "gw.iters=5", "seed=3"],
    ["attention-study", "out_dir={out}/att", "dataset={out}/shapes",
     "attention.epochs=1", "attention.bins=4", "seed=3"],
    *([command, f"out_dir={{out}}/{name}", f"dataset={{out}}/{data}", *COMMON,
       *keys]
      for name, data, keys in MODEL_RUNS
      for command in ("train", "sample", "eval")),
    # random_pred is model-free: no train step
    ["sample", "out_dir={out}/random_pred", "dataset={out}/data",
     "method=random_pred", "seed=3"],
    ["eval", "out_dir={out}/random_pred", "dataset={out}/data",
     "method=random_pred", "seed=3"],
]


def run(sequence, out_dir):
    """Run ``sequence``, argv lists of ``ncgn`` with ``{out}`` standing for
    ``out_dir``, with the ``ncgn`` package this process imports. Raises
    RuntimeError naming the argv of the first command that exits non-zero."""
    from ncgn import cli

    for template in sequence:
        argv = [arg.format(out=out_dir) for arg in template]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        if code:
            raise RuntimeError(f"ncgn {' '.join(argv)} exited {code}")


def use_source(src):
    """Import ``ncgn`` from the directory ``src``; None, or the message
    naming both paths when it came from elsewhere."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    try:
        import ncgn
    except ModuleNotFoundError:
        return f"no ncgn package in {src}"
    found = Path(ncgn.__file__).resolve()
    if not found.is_relative_to(src):
        return f"ncgn was imported from {found}, not from {src}"
    return None


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} SRC_DIR OUT_DIR | --check SRC_DIR",
              file=sys.stderr)
        return 2
    check = argv[1] == "--check"
    src = argv[2] if check else argv[1]
    out = None if check else Path(argv[2])
    if out is not None and out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"{argv[0]}: {out} exists and is not an empty directory",
              file=sys.stderr)
        return 2
    error = use_source(src)
    if error:
        print(f"{argv[0]}: {error}", file=sys.stderr)
        return 2
    try:
        if out is not None:
            run(SEQUENCE, out)
            return 0
        with tempfile.TemporaryDirectory() as tmp:
            run(SEQUENCE, Path(tmp))
            import seeded_diff

            return seeded_diff.check(RECORD.read_text(), Path(tmp))
    except RuntimeError as exc:
        print(f"{argv[0]}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
