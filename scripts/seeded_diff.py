#!/usr/bin/env python3
"""Compare two output trees of scripts/seeded_outputs.py by value, or one
tree with a digest record.

Usage: python3 scripts/seeded_diff.py OLD NEW
       python3 scripts/seeded_diff.py --digests OUT > RECORD
       python3 scripts/seeded_diff.py --check RECORD OUT

Prints a line per difference of each file that differs: for numeric files
(``.csv``, ``.graph``, ``.ckpt`` and dataset ``manifest`` files) the largest
absolute deviation and that deviation relative to the file's largest
magnitude; for any other file "differs". Text files are compared token by
token: float tokens (the ones ``repr(float)`` writes, with a ".", an
exponent, "inf" or "nan") by value, and integer tokens (a ``.graph``
header's counts, a manifest's seed, CSV step columns) and words (CSV column
names, manifest keys) exactly. So a text file's largest magnitude is its
largest float, never a count. Checkpoints are compared array by array, by
name: the deviation covers the arrays both sides share, arrays present on
one side only (or with other shapes) are listed by name, and the train
records are compared key by key (the keys on one side only and the keys
whose values differ).
``config.resolved`` is skipped, since it records the output paths. Exits 1
when a file exists on one side only, a non-numeric file, a word or an
integer token differs, the two sides of a numeric file differ in layout
(token count, checkpoint names, shapes or order) or two checkpoint records
differ; exits 0 when every difference is in float values.

``--digests`` prints the digest record of a tree, the format of
``scripts/seeded_outputs.sha256``: a header line naming the environment
(the Python, numpy and scipy versions and numpy's BLAS), then one
``sha256sum`` line per file in path order, ``config.resolved`` skipped.
``--check`` compares a tree with a record. It prints each file that
differs, is missing or is extra, and exits 1 if there is one. A header
that differs from this environment's is printed as that, naming the
differing entries, and is not an output change.
"""

from __future__ import annotations

import hashlib
import platform
import re
import sys
from importlib import metadata
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


def _int(token):
    try:
        return int(token)
    except ValueError:
        return None


def text_values(path):
    """The float tokens of a CSV, ``.graph`` or ``manifest`` file, and its
    layout: every token in order, integers as ints, words as strings and
    each float as None."""
    floats, layout = [], []
    for tok in SEPARATORS.split(path.read_text().strip()):
        num = _int(tok)
        if num is None and _float(tok) is not None:
            floats.append(float(tok))
            layout.append(None)
        else:
            layout.append(tok if num is None else num)
    return np.array(floats), layout


def text_pair(old, new):
    """Token-by-token float values of two text files (none when the layouts
    differ), their layout differences and, as they hold no record, no
    record differences. A layout that differs in integers only is reported
    by its first differing integer."""
    (a, layout_a), (b, layout_b) = text_values(old), text_values(new)
    if layout_a == layout_b:
        return a, b, [], []
    diffs = [(x, y) for x, y in zip(layout_a, layout_b) if x != y]
    if len(layout_a) == len(layout_b) and all(
            isinstance(x, int) and isinstance(y, int) for x, y in diffs):
        x, y = diffs[0]
        return None, None, [f"integers differ at {len(diffs)} token(s), "
                            f"first {x} in OLD, {y} in NEW"], []
    return None, None, ["tokens"], []


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


def output_files(root):
    """The relative paths of the files under ``root``, ``SKIP`` excluded."""
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and p.name not in SKIP}


def environment():
    """The header line of a digest record: ``key=value`` per entry."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# python={platform.python_version()} numpy={np.__version__} "
            f"scipy={metadata.version('scipy')} "
            f"blas={blas['name']}-{blas['version']}")


def digests(root):
    """The digest record of the tree ``root``, as text."""
    rows = [f"{hashlib.sha256((root / rel).read_bytes()).hexdigest()}  "
            f"{rel.as_posix()}" for rel in sorted(output_files(root))]
    return "\n".join([environment()] + rows) + "\n"


def parse_record(text):
    """``(environment entries, {path: digest})`` of a digest record."""
    header, *rows = text.splitlines()
    entries = dict(item.split("=", 1) for item in header.lstrip("# ").split())
    return entries, {path: digest for digest, path in
                     (row.split("  ", 1) for row in rows)}


def moved_entries(env_old, env_new):
    """The environment entries, in order, whose values differ between two
    records' headers (as ``parse_record`` gives them)."""
    return sorted(key for key in env_old.keys() | env_new.keys()
                  if env_old.get(key) != env_new.get(key))


def check(record, root):
    """Print how the tree ``root`` differs from the digest record text
    ``record``; 1 if some file differs, is missing or is extra, else 0."""
    (env_old, old), (env_new, new) = parse_record(record), parse_record(digests(root))
    moved = moved_entries(env_old, env_new)
    for key in moved:
        print(f"environment differs: {key} {env_old.get(key)} in the record, "
              f"{env_new.get(key)} here")
    bad = 0
    for path in sorted(old.keys() | new.keys()):
        state = ("missing" if path not in new else "extra" if path not in old
                 else "differs" if old[path] != new[path] else None)
        if state:
            print(f"{path}: {state}")
            bad += 1
    print(f"{bad} of {len(old.keys() | new.keys())} files differ from the record"
          + (", which was made in another environment" if moved else ""))
    return 1 if bad else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "--digests":
        print(digests(Path(argv[2])), end="")
        return 0
    if len(argv) == 4 and argv[1] == "--check":
        return check(Path(argv[2]).read_text(), Path(argv[3]))
    if len(argv) != 3:
        print(f"usage: {argv[0]} OLD NEW | --digests OUT | --check RECORD OUT",
              file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[1]), Path(argv[2])
    files = [output_files(root) for root in (old_root, new_root)]
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
        if rel.suffix in (".ckpt", ".csv", ".graph") or rel.name == "manifest":
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
