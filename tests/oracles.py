"""Scalar reference helpers that only the tests use."""

import logging

import numpy as np

from erkg.errors import ConfigError
from erkg.regularizers import ER_MODES, _sigmoid

logger = logging.getLogger(__name__)


def pair_label(params, h_a, h_b, r, mode, categories=None, eps=None, tau=1.0, strict=False):
    """Soft similarity label for one same-relation head pair.

    Category modes return 1.0 for equal labels and 0.0 otherwise; with an
    unlabeled entity they fall back to the joint labeling (warned) unless
    ``strict``.  Joint mode returns
    ``sigmoid((eps_r - ||x_a - x_b||) / tau)`` and requires an initialized
    threshold.
    """
    if mode not in ER_MODES:
        raise ConfigError(f"unknown er_mode {mode!r}")
    if mode != "joint":
        ca = categories.get(h_a) if categories is not None else None
        cb = categories.get(h_b) if categories is not None else None
        if ca is not None and cb is not None:
            return 1.0 if ca == cb else 0.0
        if strict:
            raise ConfigError(
                f"entities {h_a}/{h_b} lack category labels in {mode} mode"
            )
        logger.warning("unlabeled pair (%d, %d): falling back to joint label", h_a, h_b)
    if eps is None or not eps.initialized[r]:
        raise ConfigError(f"epsilon for relation {r} is not initialized")
    dist = float(np.linalg.norm(params.head_table[h_a] - params.head_table[h_b]))
    return float(_sigmoid((eps.epsilon[r] - dist) / tau))
