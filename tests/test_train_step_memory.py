import importlib.util
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np

from ncgn.tensor import Tensor

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "train_step_memory.py"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def load_script():
    spec = importlib.util.spec_from_file_location("train_step_memory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blas_threads_default_to_one_and_a_set_value_stays(monkeypatch):
    for name in BLAS_THREADS:
        monkeypatch.setenv(name, "3")  # restored, or removed, afterwards
    monkeypatch.delenv("OMP_NUM_THREADS")
    load_script()
    assert [os.environ[name] for name in BLAS_THREADS] == ["3", "1"]


def test_watched_backward_names_the_peak_closure_and_keeps_none(monkeypatch):
    for name in BLAS_THREADS:
        monkeypatch.setenv(name, os.environ.get(name, "1"))
    script = load_script()
    a = Tensor(np.ones((200, 50)), requires_grad=True)
    h = a * 3.0
    value = weakref.ref(h.data)  # kept by h * h for its backward
    root = (h * h).sum()
    del h
    runs = []
    tracemalloc.start()
    try:
        script.watch_closures(root, runs)
        root.backward()
    finally:
        tracemalloc.stop()
    assert value() is None
    # sum, h * h, a * 3.0, in the order backward runs them
    assert [name.split(" ")[0] for name, _, _ in runs] == [
        "Tensor.sum.<locals>.bwd", "Tensor.__mul__.<locals>.bwd",
        "Tensor.__mul__.<locals>.bwd"]
    assert all("tensor.py:" in name for name, _, _ in runs)
    place, name, live = script.peak_closure(runs)
    assert name == runs[place - 1][0] and live == runs[place - 1][1] / 2**20
    peaks = [peak for _, _, peak in runs]
    assert peaks[place - 1] == max(peaks) and all(
        peak < max(peaks) for peak in peaks[:place - 1])
    np.testing.assert_array_equal(a.grad, np.full((200, 50), 18.0))
