#!/usr/bin/env python3
"""Compare two output trees of scripts/seeded_outputs.sh by value.

Usage: python3 scripts/seeded_diff.py OLD NEW

Prints a line per difference of each file that differs: for numeric files
(``.csv``, ``.graph``, ``.ckpt``) the largest absolute deviation and that
deviation relative to the file's largest magnitude; for any other file
"differs". Checkpoints are compared array by array, by name: the deviation
covers the arrays both sides share, arrays present on one side only (or
with other shapes) are listed by name, and the train records are compared
key by key (the keys on one side only and the keys whose values differ).
``config.resolved`` is skipped, since it records the output paths. Exits 1
when a file exists on one side only, a non-numeric file or token differs,
the two sides of a numeric file differ in layout (token count, checkpoint
names, shapes or order) or two checkpoint records differ; exits 0 when
every difference is numeric.
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


def text_pair(old, new):
    """Token-by-token values of two text files (none when the layouts
    differ), their layout differences and, as they hold no record, no
    record differences."""
    (a, words_a), (b, words_b) = text_values(old), text_values(new)
    if words_a != words_b or a.shape != b.shape:
        return None, None, ["tokens"], []
    return a, b, [], []


def record_notes(a, b):
    """Key-by-key differences of two checkpoint records: the keys on one
    side only and the keys whose values differ."""
    notes = [f"only in {side}: " + ", ".join(f"{k} = {d[k]}" for k in keys)
             for side, d, keys in (("OLD", a, [k for k in a if k not in b]),
                                   ("NEW", b, [k for k in b if k not in a]))
             if keys]
    notes += [f"value of {k!r}: {a[k]} in OLD, {b[k]} in NEW"
              for k in a if k in b and a[k] != b[k]]
    return notes


def checkpoint_pair(old, new):
    """Values of the arrays two checkpoints share (same name and shape),
    flattened in OLD's order, the layout differences by array name and the
    record differences."""
    (a, record_a), (b, record_b) = load_checkpoint(old), load_checkpoint(new)
    shared = [n for n in a if n in b and a[n].shape == b[n].shape]
    layout = [f"only in {side}: {', '.join(map(repr, names))}"
              for side, names in (("OLD", [n for n in a if n not in b]),
                                  ("NEW", [n for n in b if n not in a])) if names]
    layout += [f"shape of {n!r}: {a[n].shape} in OLD, {b[n].shape} in NEW"
               for n in a if n in b and a[n].shape != b[n].shape]
    if not layout and list(a) != list(b):
        layout.append("array order")

    def flat(arrays):
        return np.concatenate([arrays[n].ravel() for n in shared] + [np.zeros(0)])

    return flat(a), flat(b), layout, record_notes(record_a, record_b)


def compare(old, new):
    """The deviation of two numeric files, "max abs X, relative to largest
    Y" (None when they share no values), and notes on their layout and
    record differences. Checkpoints are matched by array name, so their
    deviation covers the arrays both sides share."""
    pair = checkpoint_pair if old.suffix == ".ckpt" else text_pair
    a, b, layout, records = pair(old, new)
    notes = ([f"layout differs: {note}" for note in layout]
             + [f"record differs: {note}" for note in records])
    if a is None or a.size == 0:
        return None, notes
    dev = float(np.max(np.abs(a - b)))
    scale = float(max(np.abs(a).max(), np.abs(b).max()))
    shared = " over the shared arrays" if layout else ""
    return (f"max abs {dev:.3e}, relative to largest "
            f"{dev / scale if scale else 0.0:.3e}{shared}"), notes


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} OLD NEW", file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[1]), Path(argv[2])
    files = [{p.relative_to(root) for p in root.rglob("*")
              if p.is_file() and p.name not in SKIP}
             for root in (old_root, new_root)]
    both = files[0] & files[1]
    failed = False
    same = 0
    for rel in sorted(files[0] | files[1]):
        if rel not in both:
            side = "OLD" if rel in files[0] else "NEW"
            print(f"{rel}: only in {side}")
            failed = True
            continue
        old, new = old_root / rel, new_root / rel
        if old.read_bytes() == new.read_bytes():
            same += 1
            continue
        if rel.suffix in (".ckpt", ".csv", ".graph"):
            deviation, notes = compare(old, new)
            if deviation is not None:
                print(f"{rel}: {deviation}")
        else:
            notes = ["differs"]
        for note in notes:
            print(f"{rel}: {note}")
            failed = True
    print(f"{same} of {len(files[0] | files[1])} files byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
