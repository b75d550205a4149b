"""Output checks against reference values recorded when the benchmark was defined.

Each workload run ends, outside its timed stages, with a small fixed case
(seed 0) that exercises the same layers, and compares the outputs with
``reference.json``. A value off by more than its tolerance is a failed
operation, reported by name.

Tolerances bound the largest deviation relative to the largest reference
value of the same name, and allow a future change of summation order
(a CSR scatter in place of ``np.add.at``, blocked Sinkhorn marginal checks),
not a change of results. NOTES.md gives the measurement behind each.

Record the references (only from a commit whose outputs are the accepted
ones) with:

    PYTHONPATH=src python3 perfbench/checks.py --record
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# name -> relative tolerance; None means exact equality.
TOLERANCES = {
    "trajectory_checksums": 1e-12,   # elementwise Euler steps, no reductions
    "dataset_checksums": 1e-12,
    "loss_rows": 1e-7,
    "sample_checksums": 1e-7,
    "w2_mean": 1e-7,
    "gw_rows": 1e-6,
    "argmin_rows": None,
}
ATOL = 1e-12  # floor for the scale of an all-zero reference


def _checksum(arrays):
    data = np.concatenate([np.ravel(a) for a in arrays])
    return [float(data.sum()), float((data * data).sum())]


def _train_sample(engine, train_graphs, templates, cfg, component):
    model, ema, rows = engine.train(train_graphs, cfg)
    ema.copy_to(model)
    generated = engine.sample(model, templates, cfg, seed=0)
    return ([float(r[2]) for r in rows],
            _checksum(getattr(g, component) for g in generated), generated)


def reference_case(workload):
    """Outputs of the fixed seed-0 case for ``workload``: name -> list."""
    from ncgn import dataset, engine, reaction_diffusion

    if workload == "rd_features":
        params = reaction_diffusion.RdParams(sign_convention="damped")
        traj = []
        for seed in (0, 1):
            x = reaction_diffusion.simulate_rd(params, seed=seed)
            traj += [float(x.sum()), float((x * x).sum()), float(x[-1].sum())]
        ds = dataset.generate_rd_dataset(n_train=4, n_test=2, seed=0,
                                         sign_convention="damped")
        cfg = engine.TrainConfig(task="features", method="dmp", mp_kind="gcn",
                                 epochs=1, warmup_epochs=1, batch=8, hdim=32,
                                 layers=3, nfes=8, seed=0)
        losses, samples, generated = _train_sample(engine, ds.train * 4, ds.test,
                                                   cfg, "features")
        w2 = engine.evaluate_w2(generated, ds.test, "features", seed=0)
        return {
            "trajectory_checksums": traj,
            "dataset_checksums": _checksum(g.features for g in ds.train + ds.test),
            "loss_rows": losses,
            "sample_checksums": samples,
            "w2_mean": [w2["mean"]],
        }
    if workload == "shapes_positions":
        ds = dataset.generate_shape_dataset(n_train=8, n_test=1, n_points=256,
                                            seed=0)
        cfg = engine.TrainConfig(task="positions", method="dmp", mp_kind="gat",
                                 epochs=1, warmup_epochs=1, batch=4, hdim=32,
                                 layers=3, nfes=8, seed=0)
        losses, samples, _ = _train_sample(engine, ds.train, ds.test, cfg,
                                           "positions")
        return {
            "dataset_checksums": _checksum(g.positions for g in ds.train + ds.test),
            "loss_rows": losses,
            "sample_checksums": samples,
        }
    if workload == "gw_study":
        graphs = dataset.generate_shape_dataset(n_train=1, n_test=0, n_points=64,
                                                seed=0).train
        rows, argmin_rows = engine.gw_study(
            graphs, noise_grid=(0.5, 0.3, 0.1), cluster_grid=(8, 16, 64),
            n_shapes=1, n_seeds=1, seed=0)
        return {
            "gw_rows": [row[2] for row in rows],
            "argmin_rows": [[row[0], row[1]] for row in argmin_rows],
        }
    raise ValueError(f"unknown workload {workload!r}")


def compare(workload, actual, reference):
    """(name, ok, detail) per reference value of ``workload``."""
    out = []
    for key, expected in reference[workload].items():
        name = f"reference.{key}"
        got = actual.get(key)
        tol = TOLERANCES[key]
        if got is None or np.shape(got) != np.shape(expected):
            out.append((name, False, f"shape {np.shape(got)} != {np.shape(expected)}"))
            continue
        got, expected = np.asarray(got, float), np.asarray(expected, float)
        if tol is None:
            ok = np.array_equal(got, expected)
            err = 0.0 if ok else float(np.max(np.abs(got - expected)))
        else:
            scale = max(float(np.max(np.abs(expected))), ATOL)
            err = float(np.max(np.abs(got - expected))) / scale
            ok = err <= tol
        out.append((name, bool(ok), f"max rel err {err:.3e} (tol {tol})"))
    return out


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def main(argv):
    if argv != ["--record"]:
        print(__doc__, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    ref = {w: reference_case(w) for w in WORKLOADS}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
