"""The three benchmark workloads, each a closed loop of calls into ncgn.

Every workload is one caller in one process: a call starts only when the
previous one has returned. The amount of work is a fixed function of
(workload, seconds), so outputs are a pure function of (seed, seconds), and
a run on the reference box measures about ``seconds`` of work. NOTES.md
gives the reasons for each workload.

The untraced run touches the program only at these call boundaries, where
it reads the clock and runs a calibration burst (calibrate.py): each
``simulate_rd`` of the dataset generator, each ``nn.Adam.step`` (train step
boundaries), every 8th ``interpolate`` while training, each
``engine.merged_forward`` while sampling (one per NFE), each ``evaluate_w2``,
each ``gw_entropic`` solve and every 5th Sinkhorn call of the GW study.
Burst time is taken out of every interval.
"""

from __future__ import annotations

import contextlib
import itertools
from time import perf_counter

import numpy as np

WORKLOADS = ("rd_features", "shapes_positions", "gw_study")

# Test graphs sampled on rd_features: the smallest count whose 8x12 graphs
# pool at least the 1024 points evaluate_w2 subsamples, so `warned` is false.
RD_TEST_GRAPHS = 11
# evaluate_w2 runs on worker threads, so its bursts go between the calls
EVAL_BURSTS = 10


def sizes(workload, seconds, tiny=False):
    """Work per run, scaled by ``seconds`` with per-unit costs measured on
    the reference box (NOTES.md); ``tiny`` is the self-test size."""
    if workload == "rd_features":
        if tiny:
            return dict(n_train=4, n_test=2, batch=8, train_steps=1, nfes=4,
                        eval_reps=1)
        return dict(n_train=max(4, round(seconds / 2)), n_test=RD_TEST_GRAPHS,
                    batch=128, train_steps=max(1, round(seconds / 4)),
                    nfes=200, eval_reps=3)
    if workload == "shapes_positions":
        if tiny:
            return dict(n_points=256, n_sample=1, batch=4, train_steps=2, nfes=4)
        return dict(n_points=256, n_sample=4, batch=32,
                    train_steps=max(1, round(seconds / 2)), nfes=200)
    if workload == "gw_study":
        if tiny:
            return dict(n_points=64, n_shapes=1, noise_grid=(0.5, 0.1),
                        cluster_grid=(16, 64))
        return dict(n_points=64, n_shapes=max(1, round(seconds / 15)),
                    noise_grid=(0.9, 0.7, 0.5, 0.3, 0.1),
                    cluster_grid=(4, 8, 16, 32, 64))
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# probes of the untraced run


@contextlib.contextmanager
def _patched(owner, attr, make):
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def burst_before(owner, attr, clock, marks=None, every=1):
    """Run a calibration burst before every ``every``-th call of
    ``owner.attr``; append the clock read that ends it to ``marks``, if given."""

    def make(original):
        calls = itertools.count()

        def probe(*args, **kwargs):
            if next(calls) % every == 0:
                end = clock.burst()
                if marks is not None:
                    marks.append(end)
            return original(*args, **kwargs)

        return probe

    return _patched(owner, attr, make)


def time_calls(owner, attr, ops, clock, every=1):
    """Append (start, duration less bursts) of each call of ``owner.attr`` to
    ``ops``, after a calibration burst before every ``every``-th call."""

    def make(original):
        calls = itertools.count()

        def probe(*args, **kwargs):
            if next(calls) % every == 0:
                clock.burst()
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                ops.append((start, end - start - clock.burst_time_between(start, end)))

        return probe

    return _patched(owner, attr, make)


# ----------------------------------------------------------------------
# one run's record


class Run:
    """What one workload run measured and produced."""

    def __init__(self, clock):
        self.clock = clock
        self.stages = {}       # stage name -> (start, end)
        self.items = {}        # item kind -> count
        self.step_ops = []     # (start, seconds): train steps / GW solves
        self.inner_ops = []    # (start, seconds): NFEs / Sinkhorn calls
        self.eval_ops = []     # (start, seconds): evaluate_w2 calls
        self.checks = []       # (name, ok, detail)
        self.dump = {}         # arrays the self-test compares across runs

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def intervals(self, points):
        """(start, seconds) between consecutive clock reads, bursts removed."""
        return [(a, b - a - self.clock.burst_time_between(a, b))
                for a, b in zip(points[:-1], points[1:])]

    def summary(self):
        """Raw and host-normalized stage times and operation times."""
        clock = self.clock
        out = {"stages_raw": {}, "stages": {}}
        for name, (start, end) in self.stages.items():
            out["stages_raw"][name] = end - start - clock.burst_time_between(start, end)
            out["stages"][name] = clock.normalized(start, end)
        for key in ("step", "inner", "eval"):
            ops = getattr(self, f"{key}_ops")
            out[f"{key}_s_raw"] = [d for _, d in ops]
            out[f"{key}_s"] = [d * clock.factor_at(s + 0.5 * d) for s, d in ops]
        out["pipeline_s_raw"] = sum(out["stages_raw"].values())
        out["pipeline_s"] = sum(out["stages"].values())
        out["bursts"] = len(clock.durations)
        out["burst_ms_median"] = 1e3 * float(np.median(clock.durations)) \
            if clock.durations else None
        return out


def _finite_graphs(graphs, component):
    return all(np.isfinite(getattr(g, component)).all() for g in graphs)


# ----------------------------------------------------------------------
# workloads


class RdFeatures:
    """Transcriptomics pipeline: simulate -> train -> sample -> evaluate."""

    def __init__(self, seed, size):
        self.seed, self.size = seed, size

    def setup(self):
        pass  # input generation is the timed simulate stage

    def run(self, run: Run):
        from ncgn import dataset, engine, nn

        s, clock = self.size, run.clock
        start = clock.burst()
        with burst_before(dataset, "simulate_rd", clock):
            ds = dataset.generate_rd_dataset(
                n_train=s["n_train"], n_test=s["n_test"], seed=self.seed * 10_000,
                sign_convention="damped")
        run.stages["simulate"] = (start, clock.burst())
        run.items["trajectories"] = s["n_train"] + s["n_test"]
        run.check("simulate.finite", _finite_graphs(ds.train + ds.test, "features"))
        run.check("simulate.shapes",
                  all(g.features.shape == (100, 3) for g in ds.train)
                  and all(g.features.shape == (96, 3) for g in ds.test))

        # The simulated train graphs, repeated to fill every batch: all
        # 10x10 graphs share one grid, so a step costs the same whether its
        # graphs are distinct or not.
        n_graphs = s["batch"] * s["train_steps"]
        reps = -(-n_graphs // len(ds.train))
        cfg = engine.TrainConfig(task="features", method="dmp", mp_kind="gcn",
                                 interpolant="cfm", epochs=1, warmup_epochs=1,
                                 batch=s["batch"], hdim=32, layers=3,
                                 nfes=s["nfes"], seed=self.seed)
        generated = _train_and_sample(run, engine, nn, (ds.train * reps)[:n_graphs],
                                      ds.test, cfg, "features")

        start = clock.burst()
        for rep in range(s["eval_reps"]):
            t0 = perf_counter()
            result = engine.evaluate_w2(generated, ds.test, "features",
                                        seed=self.seed + rep)
            run.eval_ops.append((t0, perf_counter() - t0))
            for _ in range(EVAL_BURSTS):
                end = clock.burst()
            run.check(f"eval.{rep}.finite", np.isfinite(result["mean"])
                      and result["mean"] > 0, repr(result["mean"]))
            if s["n_test"] == RD_TEST_GRAPHS:
                run.check(f"eval.{rep}.not_warned", not result["warned"])
            run.dump[f"w2_{rep}"] = np.asarray(result["values"])
        run.stages["eval"] = (start, end)


class ShapesPositions:
    """Position generation on 256-point surface clouds with GAT message passing."""

    def __init__(self, seed, size):
        self.seed, self.size = seed, size

    def setup(self):
        from ncgn import dataset

        s = self.size
        self.ds = dataset.generate_shape_dataset(
            n_train=s["batch"] * s["train_steps"], n_test=s["n_sample"],
            n_points=s["n_points"], seed=self.seed * 10_000)

    def run(self, run: Run):
        from ncgn import engine, nn

        s = self.size
        cfg = engine.TrainConfig(task="positions", method="dmp", mp_kind="gat",
                                 interpolant="cfm", epochs=1, warmup_epochs=1,
                                 batch=s["batch"], hdim=32, layers=3,
                                 nfes=s["nfes"], seed=self.seed)
        _train_and_sample(run, engine, nn, self.ds.train, self.ds.test, cfg,
                          "positions")


def _train_and_sample(run, engine, nn, train_graphs, templates, cfg, component):
    clock = run.clock
    marks = []
    start = clock.burst()
    with burst_before(nn.Adam, "step", clock, marks), \
            burst_before(engine, "interpolate", clock, every=8):
        model, ema, rows = engine.train(train_graphs, cfg)
    run.stages["train"] = (start, clock.burst())
    # step k runs from the end of step k-1's Adam burst to step k's Adam burst
    run.step_ops = run.intervals([start] + marks)
    run.items["train_graphs"] = len(train_graphs)
    losses = np.array([row[2] for row in rows])
    run.check("train.steps", len(rows) == len(marks) == len(train_graphs) // cfg.batch,
              str(len(rows)))
    run.check("train.finite_loss", np.isfinite(losses).all())
    run.dump["losses"] = losses

    # sample with the EMA weights, as the CLI's train -> sample handoff does
    ema.copy_to(model)
    marks = []
    start = clock.burst()
    with burst_before(engine, "merged_forward", clock, marks):
        generated = engine.sample(model, templates, cfg, seed=cfg.seed)
    end = clock.burst()
    run.stages["sample"] = (start, end)
    run.inner_ops = run.intervals(marks + [end]) if marks else []
    run.items["sampled_graphs"] = len(generated)
    run.check("sample.count", len(generated) == len(templates))
    run.check("sample.nfes", len(marks) == cfg.nfes, str(len(marks)))
    run.check("sample.finite", _finite_graphs(generated, component))
    run.check("sample.shapes", all(
        getattr(g, component).shape == getattr(t, component).shape
        for g, t in zip(generated, templates)))
    run.dump["samples"] = np.concatenate([getattr(g, component) for g in generated])
    return generated


class GwStudy:
    """engine.gw_study at the study defaults on a subset of 64-point shapes.

    The inputs are the study's own (shape corpus seed 0, noise seed 0) for
    every workload seed: the study's cost follows its Sinkhorn iteration
    counts, which change by up to 2x from one shape or noise draw to the
    next, so seed-drawn inputs would measure the draw, not the solver.
    """

    def __init__(self, seed, size):
        self.seed, self.size = seed, size

    def setup(self):
        from ncgn import dataset

        s = self.size
        self.graphs = dataset.generate_shape_dataset(
            n_train=s["n_shapes"], n_test=0, n_points=s["n_points"], seed=0).train

    def run(self, run: Run):
        from ncgn import engine, transport

        s, clock = self.size, run.clock
        start = clock.burst()
        with time_calls(engine, "gw_entropic", run.step_ops, clock), \
                time_calls(transport, "_sinkhorn_log", run.inner_ops, clock, every=5):
            rows, argmin_rows = engine.gw_study(
                self.graphs, noise_grid=s["noise_grid"],
                cluster_grid=s["cluster_grid"], n_shapes=s["n_shapes"],
                n_seeds=1, seed=0)
        run.stages["gw"] = (start, clock.burst())
        cells = len(s["noise_grid"]) * len(s["cluster_grid"])
        run.items["gw_solves"] = len(run.step_ops)
        values = np.array([row[2] for row in rows])
        run.check("gw.solves", len(run.step_ops) == cells * s["n_shapes"],
                  str(len(run.step_ops)))
        run.check("gw.rows", len(rows) == cells)
        run.check("gw.values", np.isfinite(values).all() and (values >= 0).all())
        run.check("gw.argmin", len(argmin_rows) == len(s["noise_grid"]) and all(
            c in s["cluster_grid"] for _, c in argmin_rows))
        run.dump["gw_rows"] = values


CLASSES = {"rd_features": RdFeatures, "shapes_positions": ShapesPositions,
           "gw_study": GwStudy}
