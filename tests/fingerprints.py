"""Fingerprints of one training epoch for every supported (kind, penalty)
pair: the sha1 of the dim-16 checkpoint, the ``repr`` of the epoch's
loss and regularizer value, and the sha1 of the checkpoint's filtered
valid-split ranks (mean ties), one line per pair.

Two checkouts train the same numbers when their outputs are equal.  Run
from the repository root:

    PYTHONPATH=src python -m tests.fingerprints [kind:penalty ...]
    PYTHONPATH=src python -m tests.fingerprints --against SAVED [kind:penalty ...]

With no pairs named every supported pair runs.  ``er`` runs in joint mode
with second-order paths on.  ``--against SAVED`` compares with an earlier
output saved to a file: each pair prints ``same``, or its new digest with
the relative move of its loss and regularizer value and, if they moved,
its new ranks digest (``new`` for a pair absent from SAVED), and the
exit status is 1 if any pair differs.  A saved line without a ranks
digest, as written before ranks were fingerprinted, is compared on its
other fields.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from erkg.data import add_reciprocals, generate_synthetic
from erkg.errors import ConfigError
from erkg.models import ModelKind
from erkg.ranking import evaluate
from erkg.regularizers import RegularizerSpec
from erkg.training import TrainConfig, save_checkpoint, train

PENALTIES = ("none", "fro", "n3", "dura", "er")


def supported_pairs() -> list[str]:
    """``kind:penalty`` of every pair the trainer supports (25), as
    ``TrainConfig.validate`` decides."""
    pairs = []
    for kind in ModelKind:
        for penalty in PENALTIES:
            try:
                TrainConfig(model=kind.value, regularizer=RegularizerSpec(kind=penalty)).validate()
            except ConfigError:
                continue
            pairs.append(f"{kind.value}:{penalty}")
    return pairs


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
    ranks = evaluate(params, store.valid, store.filter_index, keep_ranks=True).per_query_ranks
    ranks_digest = hashlib.sha1(ranks.tobytes()).hexdigest()
    return f"{kind} {penalty} {digest} {record.loss!r} {record.reg_value!r} {ranks_digest}"


def fingerprint_store():
    """The small reciprocal-augmented synthetic graph every pair trains on."""
    store, _categories = generate_synthetic(60, 3, 4, 60, 0.05, seed=3)
    return add_reciprocals(store)


def relative_move(new: str, old: str) -> float:
    a, b = float(new), float(old)
    return abs(a - b) / abs(b) if b else abs(a - b)


def compare(line: str, saved: dict[tuple[str, str], list[str]]) -> str:
    """``kind penalty`` and ``same``, ``new``, or the new digest with the
    relative moves of loss and regularizer against ``saved`` and the new
    ranks digest if it moved."""
    kind, penalty, *new = line.split()
    old = saved.get((kind, penalty))
    if old is None:
        return f"{kind} {penalty} new"
    if old == new[: len(old)]:
        return f"{kind} {penalty} same"
    digest, loss, reg, ranks = new
    moved = f" ranks {ranks}" if len(old) > 3 and old[3] != ranks else ""
    return (f"{kind} {penalty} {digest} loss {relative_move(loss, old[1]):.1e} "
            f"reg {relative_move(reg, old[2]):.1e}{moved}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.fingerprints")
    ap.add_argument("--against", type=Path, help="an earlier output to compare with")
    ap.add_argument("pairs", nargs="*", help="kind:penalty (default: every supported pair)")
    args = ap.parse_args(argv)
    saved = None
    if args.against is not None:
        rows = (line.split() for line in args.against.read_text().splitlines() if line.strip())
        saved = {(row[0], row[1]): row[2:] for row in rows}
    store = fingerprint_store()
    differ = False
    with tempfile.TemporaryDirectory() as workdir:
        for pair in args.pairs or supported_pairs():
            line = fingerprint(store, pair, Path(workdir))
            if saved is not None:
                line = compare(line, saved)
                differ |= not line.endswith(" same")
            print(line, flush=True)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
