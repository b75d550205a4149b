"""Noise-conditioned graph networks: flow-based generative modeling of
geometric graphs with noise-adaptive message passing."""

__version__ = "0.1.0"

from .graphs import GeometricGraph  # noqa: F401
from .schedule import default_bounds, eval_schedule  # noqa: F401
from .dmp import DmpModel  # noqa: F401
from .engine import TrainConfig, evaluate_w2, sample, train  # noqa: F401
