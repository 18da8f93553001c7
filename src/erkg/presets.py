"""Hyperparameter profiles per model and benchmark.

``paper`` profiles record the grid-searched full-scale settings; ``desk``
profiles cap the dimension so runs finish on a laptop.  Every other
setting keeps its ``TrainConfig`` or ``RegularizerSpec`` default.
Learning-rate and coefficient grids are the standard six-value search
sets.
"""

from .errors import ConfigError
from .regularizers import RegularizerSpec
from .training import TrainConfig

LEARNING_RATE_GRID = [0.5, 0.1, 0.05, 0.01, 0.005, 0.001]
LAMBDA_GRID = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5]

# model -> dataset -> (dim, batch_size, learning_rate)
_PAPER = {
    "cp": {
        "wn18rr": (2000, 100, 0.1),
        "fb15k237": (2000, 100, 0.05),
        "yago3-10": (2000, 500, 0.1),
    },
    "complex": {
        "wn18rr": (2000, 200, 0.05),
        "fb15k237": (2000, 200, 0.1),
        "yago3-10": (2000, 1000, 0.05),
    },
    "rescal": {
        "wn18rr": (512, 400, 0.1),
        "fb15k237": (512, 400, 0.1),
        "yago3-10": (512, 1000, 0.05),
    },
    "rotate": {
        "wn18rr": (400, 100, 0.1),
        "fb15k237": (400, 100, 0.05),
        "yago3-10": (400, 500, 0.05),
    },
}

DESK_DIM_CAP = 128


def get_preset(model: str, dataset: str, scale: str = "desk") -> TrainConfig:
    """ER training config for one (model, dataset) at paper or desk scale."""
    model = model.lower()
    dataset = dataset.lower()
    if model not in _PAPER:
        raise ConfigError(f"no preset for model {model!r}")
    if dataset not in _PAPER[model]:
        raise ConfigError(f"no preset for dataset {dataset!r}")
    if scale not in ("paper", "desk"):
        raise ConfigError(f"unknown scale {scale!r}")
    dim, batch, lr = _PAPER[model][dataset]
    if scale == "desk":
        dim = min(dim, DESK_DIM_CAP)
        epochs = 50
    else:
        epochs = 200
    return TrainConfig(
        model=model, dim=dim, batch_size=batch, learning_rate=lr, epochs=epochs,
        regularizer=RegularizerSpec(kind="er", lam=0.05),
    )
