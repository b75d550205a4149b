#!/usr/bin/env python3
"""Compare two output trees of scripts/seeded_outputs.sh by value.

Usage: python3 scripts/seeded_diff.py OLD NEW

Prints one line per file that differs: for numeric files (``.csv``,
``.graph``, ``.ckpt``) the largest absolute deviation and that deviation
relative to the file's largest magnitude; for any other file "differs".
``config.resolved`` is skipped, since it records the output paths.
Exits 1 when a file exists on one side only, a non-numeric file or token
differs, or the two sides of a numeric file differ in layout (token count,
checkpoint names or shapes); exits 0 when every difference is numeric.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncgn.nn import load_checkpoint  # noqa: E402

SKIP = {"config.resolved"}
SEPARATORS = re.compile(r"[,\s]+")


def _float(token):
    try:
        return float(token)
    except ValueError:
        return None


def text_values(path):
    """The numbers of a CSV or ``.graph`` file, plus its non-numeric
    tokens (the header, the CSV column names) in order."""
    tokens = SEPARATORS.split(path.read_text().strip())
    numbers = [_float(tok) for tok in tokens]
    words = [tok for tok, num in zip(tokens, numbers) if num is None]
    return np.array([num for num in numbers if num is not None]), words


def checkpoint_values(path):
    arrays = load_checkpoint(path)
    layout = [(name, arr.shape) for name, arr in arrays.items()]
    values = [arr.ravel() for arr in arrays.values()]
    return (np.concatenate(values) if values else np.zeros(0)), layout


def compare(old, new):
    """(max abs deviation, that deviation relative to the largest
    magnitude) of two numeric files; ValueError when their layouts
    differ."""
    read = checkpoint_values if old.suffix == ".ckpt" else text_values
    (a, layout_a), (b, layout_b) = read(old), read(new)
    if layout_a != layout_b or a.shape != b.shape:
        raise ValueError("layout differs")
    dev = float(np.max(np.abs(a - b)))
    scale = float(max(np.abs(a).max(), np.abs(b).max()))
    return dev, dev / scale


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} OLD NEW", file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[1]), Path(argv[2])
    files = [{p.relative_to(root) for p in root.rglob("*")
              if p.is_file() and p.name not in SKIP}
             for root in (old_root, new_root)]
    failed = False
    same = 0
    for rel in sorted(files[0] | files[1]):
        if rel not in files[0] or rel not in files[1]:
            side = "OLD" if rel in files[0] else "NEW"
            print(f"{rel}: only in {side}")
            failed = True
            continue
        old, new = old_root / rel, new_root / rel
        if old.read_bytes() == new.read_bytes():
            same += 1
            continue
        if rel.suffix not in (".csv", ".graph", ".ckpt"):
            print(f"{rel}: differs")
            failed = True
            continue
        try:
            dev, rel_dev = compare(old, new)
        except ValueError as exc:
            print(f"{rel}: {exc}")
            failed = True
            continue
        print(f"{rel}: max abs {dev:.3e}, relative to largest {rel_dev:.3e}")
    print(f"{same} of {len(files[0] | files[1])} files byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
