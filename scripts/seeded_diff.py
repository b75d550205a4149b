#!/usr/bin/env python3
"""Compare two output trees of scripts/seeded_outputs.sh by value.

Usage: python3 scripts/seeded_diff.py OLD NEW

Prints a line per difference of each file that differs: for numeric files
(``.csv``, ``.graph``, ``.ckpt``) the largest absolute deviation and that
deviation relative to the file's largest magnitude; for records
(``key = value`` ``.config`` files, ``key: value`` ``.manifest`` files) the
keys on one side only and the keys whose values differ; for any other file
"differs". A checkpoint and its ``.manifest`` sidecar, which names its
arrays, are one unit: when either differs, the checkpoint is compared array
by array, by name, and reported under the ``.ckpt`` path. The deviation
covers the arrays both sides share, and arrays present on one side only
(or with other shapes) are listed by name. ``config.resolved`` is skipped,
since it records the output paths. Exits 1 when a file exists on one side
only, a non-numeric file or token differs, or the two sides of a numeric
file differ in layout (token count, checkpoint names, shapes or order);
exits 0 when every difference is numeric.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncgn.nn import load_checkpoint  # noqa: E402

SKIP = {"config.resolved"}
RECORD_SEPARATORS = {".config": "=", ".manifest": ":"}  # key-value records
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
    """Token-by-token values of two text files and their layout
    differences; no values when the layouts differ."""
    (a, words_a), (b, words_b) = text_values(old), text_values(new)
    if words_a != words_b or a.shape != b.shape:
        return None, None, ["tokens"]
    return a, b, []


def checkpoint_pair(old, new):
    """Values of the arrays two checkpoints share (same name and shape),
    flattened in OLD's order, and the layout differences by array name."""
    a, b = load_checkpoint(old), load_checkpoint(new)
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

    return flat(a), flat(b), layout


def manifest_of(rel):
    """The sidecar that names a checkpoint's arrays."""
    return rel.with_name(rel.name + ".manifest")


def record_values(path, sep):
    """The ``key <sep> value`` lines of a record as a dict; None when a line
    has no separator."""
    values = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        if sep not in line:
            return None
        key, value = (part.strip() for part in line.split(sep, 1))
        values[key] = value
    return values


def record_notes(old, new):
    """Key-by-key differences of two records: the keys on one side only and
    the keys whose values differ."""
    sep = RECORD_SEPARATORS[old.suffix]
    a, b = record_values(old, sep), record_values(new, sep)
    if a is None or b is None:
        return ["differs"]
    pair = "{} = {}" if sep == "=" else "{}: {}"
    notes = [f"only in {side}: " + ", ".join(pair.format(k, d[k]) for k in keys)
             for side, d, keys in (("OLD", a, [k for k in a if k not in b]),
                                   ("NEW", b, [k for k in b if k not in a]))
             if keys]
    notes += [f"value of {k!r}: {a[k]} in OLD, {b[k]} in NEW"
              for k in a if k in b and a[k] != b[k]]
    return notes or ["differs in key order or formatting only"]


def compare(old, new):
    """((max abs deviation, that deviation relative to the largest
    magnitude) or None, layout differences) of two numeric files.
    Checkpoints are matched by array name, so their deviation covers the
    arrays both sides share."""
    pair = checkpoint_pair if old.suffix == ".ckpt" else text_pair
    a, b, layout = pair(old, new)
    if a is None or a.size == 0:
        return None, layout
    dev = float(np.max(np.abs(a - b)))
    scale = float(max(np.abs(a).max(), np.abs(b).max()))
    return (dev, dev / scale if scale else 0.0), layout


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} OLD NEW", file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[1]), Path(argv[2])
    files = [{p.relative_to(root) for p in root.rglob("*")
              if p.is_file() and p.name not in SKIP}
             for root in (old_root, new_root)]
    both = files[0] & files[1]
    checkpoints = {rel for rel in both
                   if rel.suffix == ".ckpt" and manifest_of(rel) in both}
    failed = False
    same = 0
    for rel in sorted(files[0] | files[1]):
        if rel not in both:
            side = "OLD" if rel in files[0] else "NEW"
            print(f"{rel}: only in {side}")
            failed = True
            continue
        old, new = old_root / rel, new_root / rel
        identical = old.read_bytes() == new.read_bytes()
        same += identical
        if rel.suffix == ".manifest" and rel.with_suffix("") in checkpoints:
            continue  # reported under its checkpoint
        if rel in checkpoints:
            identical &= (old_root / manifest_of(rel)).read_bytes() == \
                (new_root / manifest_of(rel)).read_bytes()
        if identical:
            continue
        if rel.suffix in RECORD_SEPARATORS:
            notes = record_notes(old, new)
        elif rel in checkpoints or rel.suffix in (".csv", ".graph"):
            deviation, layout = compare(old, new)
            if deviation is not None:
                shared = " over the shared arrays" if layout else ""
                print(f"{rel}: max abs {deviation[0]:.3e}, relative to largest "
                      f"{deviation[1]:.3e}{shared}")
            notes = [f"layout differs: {note}" for note in layout]
        else:
            notes = ["differs"]
        for note in notes:
            print(f"{rel}: {note}")
            failed = True
    print(f"{same} of {len(files[0] | files[1])} files byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
