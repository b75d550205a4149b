"""The benchmark in perfbench/ reaches into ncgn by attribute name: its
tracer rebinds public functions and methods, and its workloads patch six
call boundaries. A rename in src/ would only surface when the benchmark
runs; these tests make it fail here instead."""

import ast
import functools
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import ncgn
# every module the tracer and the workloads reach by attribute name; the
# tests look them up as attributes of the ncgn package
from ncgn import (  # noqa: F401
    dataset,
    dmp,
    engine,
    graphs,
    interpolant,
    nn,
    reaction_diffusion,
    tensor,
    transport,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_patches():
    """(owner, attribute) of every burst_before / time_calls probe in
    workloads.py, e.g. ("nn.Adam", "step")."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return [(ast.unparse(node.args[0]), node.args[1].value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("burst_before", "time_calls")]


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    traced = [(module, attr) for module, attr, _ in tracing.FUNCTIONS]
    originals = {key: getattr(getattr(ncgn, key[0].split(".")[1]), key[1])
                 for key in traced}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), fn in originals.items():
            assert getattr(getattr(ncgn, module.split(".")[1]), attr) is not fn
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(getattr(ncgn, module.split(".")[1]), attr) is fn


def test_workload_patch_targets_exist():
    patches = workload_patches()
    assert len(patches) == 6
    for owner, attr in patches:
        obj = functools.reduce(getattr, owner.split("."), ncgn)
        assert attr in vars(obj), f"workloads.py patches {owner}.{attr}"


def test_train_config_keywords_are_parameters():
    """workloads.py and checks.py build their runs with
    ``engine.TrainConfig(key=value, ...)``: every keyword must stay a
    constructor parameter (a field, or the ``interpolant`` keyword), and the
    literal values together must stay a valid config."""
    names = set(inspect.signature(engine.TrainConfig).parameters)
    calls = [(path.name, node.keywords)
             for path in sorted(PERFBENCH.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "engine.TrainConfig"]
    assert len(calls) == 4
    for name, keywords in calls:
        passed = {kw.arg for kw in keywords}
        assert passed <= names, f"{name} passes {sorted(passed - names)}"
        engine.TrainConfig(**{kw.arg: kw.value.value for kw in keywords
                              if isinstance(kw.value, ast.Constant)})


@pytest.mark.parametrize("mp_kind", ["gcn", "gat"])
def test_tracer_times_every_aggregation(mp_kind):
    # every sum over cluster members or coarse in-edges is a segment_sum,
    # so the tracer's tensor.segment_sum row times each conv's product (a
    # span inside its dmp.mp span) and every backward product
    rng = np.random.default_rng(0)
    positions = rng.standard_normal((24, 2))
    inputs = dmp.node_input(rng.standard_normal((24, 3)), positions, 0.4)
    layers = 2
    model = dmp.DmpModel(d_in=6, d=2, odim=2, hdim=8, layers=layers,
                         mp_kind=mp_kind, seed=0)
    cache = engine.StructureCache(engine.TrainConfig(method="dmp"))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        engine.merged_forward(model, [(positions, inputs, 0.4)], cache).sum().backward()
    finally:
        tracer.uninstall()
    names = {sid: name for sid, name, _, _, _ in tracer.spans}
    mp_spans = {sid for sid, name in names.items() if name == "dmp.mp"}
    sums = [parent for _, name, _, _, parent in tracer.spans
            if name == "tensor.segment_sum"]
    assert len(mp_spans) == layers
    assert mp_spans <= set(sums)
    # all but the input member means (which need no gradient) run backward
    backward = [name for name in names.values() if name == "tensor.segment_sum.bwd"]
    assert len(backward) == len(sums) - 1
