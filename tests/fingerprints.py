"""Fingerprints of one training epoch for every supported (kind, penalty)
pair: the sha1 of the dim-16 checkpoint and the ``repr`` of the epoch's
loss and regularizer value, one line per pair.

Two checkouts train the same numbers when their outputs are equal.  Run
from the repository root:

    PYTHONPATH=src python -m tests.fingerprints [kind:penalty ...]

With no arguments every supported pair runs.  ``er`` runs in joint mode
with second-order paths on.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from erkg.data import add_reciprocals, generate_synthetic
from erkg.models import N3_KINDS, OPERATORS, ModelKind
from erkg.regularizers import RegularizerSpec
from erkg.training import TrainConfig, save_checkpoint, train

PENALTIES = ("none", "fro", "n3", "dura", "er")


def supported_pairs() -> list[str]:
    """``kind:penalty`` of every pair the trainer supports (25)."""
    return [
        f"{kind.value}:{penalty}"
        for kind in ModelKind
        for penalty in PENALTIES
        if not (penalty == "n3" and kind not in N3_KINDS)
        and not (penalty == "dura" and OPERATORS[kind].distance)
    ]


def fingerprint(store, pair: str, workdir: Path) -> str:
    kind, penalty = pair.split(":")
    spec = RegularizerSpec(kind=penalty, lam=0.0 if penalty == "none" else 0.05,
                           second_order=penalty == "er")
    config = TrainConfig(model=kind, dim=16, batch_size=64, learning_rate=0.1,
                         epochs=1, seed=0, regularizer=spec)
    params, eps, history = train(config, store)
    path = workdir / f"{kind}-{penalty}.erkg"
    save_checkpoint(params, eps, path)
    record = history.records[0]
    digest = hashlib.sha1(path.read_bytes()).hexdigest()
    return f"{kind} {penalty} {digest} {record.loss!r} {record.reg_value!r}"


def fingerprint_store():
    """The small reciprocal-augmented synthetic graph every pair trains on."""
    store, _categories = generate_synthetic(60, 3, 4, 60, 0.05, seed=3)
    return add_reciprocals(store)


def main(argv: list[str]) -> int:
    pairs = argv or supported_pairs()
    store = fingerprint_store()
    with tempfile.TemporaryDirectory() as workdir:
        for pair in pairs:
            print(fingerprint(store, pair, Path(workdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
