"""Command-line entry point.

Subcommands: ``train``, ``evaluate``, ``verify-theorems``, ``synth``,
``gridsearch``, ``preset``.  Configs are strict JSON: unknown keys are
rejected by name, values are type-checked and never coerced, and numbers
must be finite.  The keys of the ``train`` and ``regularizer`` sections
are the fields of ``TrainConfig`` (less ``model`` and ``regularizer``)
and ``RegularizerSpec``, with ``lam`` spelled ``"lambda"``; ``preset``
writes them back from the same fields.  Exit codes: 0 success, 1
verification or tolerance failure, 2 usage/config error, 3 numeric
abort.  Inputs are never mutated.  An input that cannot be read or
decoded (a config, data, category or checkpoint file) exits 2, and so
does an output path that cannot be created; both are found before any
training, ranking or checking starts.  A size whose arrays cannot be
allocated (``dim``, ``synth``'s counts, ``--dims``) exits 2 naming it.

Run ``verify-theorems`` with ``OPENBLAS_NUM_THREADS=1``: its many tiny
objective calls gain nothing from BLAS threads.  On a 2-core host,
``--seeds 1 --restarts 10`` took 4.1 s wall and 7.8 s CPU at default
threading, and 3.7 s wall and 3.7 s CPU with one thread (medians of
five runs each).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import nuclear
from .data import (
    add_reciprocals,
    generate_synthetic,
    load_categories,
    load_dataset,
    save_categories,
    save_triples,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ErkgError,
    InfeasibleError,
    NumericError,
    ParseError,
    check_memory,
    typed,
)
from .presets import LAMBDA_GRID, LEARNING_RATE_GRID, get_preset
from .ranking import TIE_POLICIES, evaluate
from .regularizers import RegularizerSpec
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

logger = logging.getLogger(__name__)


def _out_dir(path) -> Path:
    """``path`` as an existing directory, created if need be."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return path


def _write_json(path, obj) -> None:
    _out_dir(Path(path).parent)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, indent=2, sort_keys=True))
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_keys(doc, allowed: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where[:-1] or 'config'} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {where}{key}")


def _get(doc: dict, key: str, default, kind: type, where: str):
    """``doc[key]`` (``default`` when absent), checked by :func:`typed`."""
    return typed(doc.get(key, default), kind, where + key)


# Dataclass fields whose config key differs from the field name.
_KEY_OF = {"lam": "lambda"}


def _section(doc, cls, where: str, **given):
    """``cls(**given, ...)`` with every other field read from ``doc``.

    The keys are the dataclass fields (renamed by ``_KEY_OF``), each value is
    checked against the field's annotation, and an absent key keeps the
    field's default.  The result is validated.
    """
    hints = typing.get_type_hints(cls)
    names = {_KEY_OF.get(f.name, f.name): f.name for f in fields(cls) if f.name not in given}
    _check_keys(doc, set(names), where)
    for key, value in doc.items():
        given[names[key]] = typed(value, hints[names[key]], where + key)
    obj = cls(**given)
    obj.validate()
    return obj


def _section_doc(obj, *skip: str) -> dict:
    """``obj`` as the config section that :func:`_section` reads it back from."""
    return {
        _KEY_OF.get(f.name, f.name): getattr(obj, f.name)
        for f in fields(obj) if f.name not in skip
    }


@dataclass
class RunConfig:
    train_path: str
    valid_path: str
    test_path: str
    categories_path: str | None
    reciprocals: bool
    train: TrainConfig
    tie_policy: str
    out_dir: str
    grid: dict = field(default_factory=dict)


def load_run_config(path, allow_grid: bool = False) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    top = {"model", "data", "train", "regularizer", "eval", "output", "threads"}
    if allow_grid:
        top = top | {"grid"}
    _check_keys(doc, top, "")
    if "threads" in doc:
        logger.warning(
            "config key 'threads' is deprecated and ignored; set OPENBLAS_NUM_THREADS instead"
        )

    model = doc.get("model")
    if model is None:
        raise ConfigError("config is missing 'model'")

    data = doc.get("data", {})
    _check_keys(data, {"train", "valid", "test", "categories", "reciprocals"}, "data.")
    for key in ("train", "valid", "test"):
        if key not in data:
            raise ConfigError(f"config is missing data.{key}")
        if not Path(_get(data, key, None, str, "data.")).exists():
            raise ConfigError(f"data.{key} path does not exist: {data[key]}")
    categories = data.get("categories")
    if categories is not None and not Path(_get(data, "categories", None, str, "data.")).exists():
        raise ConfigError(f"data.categories path does not exist: {categories}")

    spec = _section(doc.get("regularizer", {}), RegularizerSpec, "regularizer.")
    tconf = _section(doc.get("train", {}), TrainConfig, "train.", model=model, regularizer=spec)

    edoc = doc.get("eval", {})
    _check_keys(edoc, {"tie_policy"}, "eval.")
    tie = _get(edoc, "tie_policy", "mean", str, "eval.")
    if tie not in TIE_POLICIES:
        raise ConfigError(f"unknown eval.tie_policy {tie!r}")

    odoc = doc.get("output", {})
    _check_keys(odoc, {"dir"}, "output.")
    out_dir = _get(odoc, "dir", "runs/out", str, "output.")

    grid = doc.get("grid", {}) if allow_grid else {}
    _check_keys(grid, {"learning_rate", "lambda"}, "grid.")
    for key, values in grid.items():
        if not isinstance(values, list):
            raise ConfigError(f"grid.{key} must be a list, got {values!r}")
        grid[key] = [typed(v, float, f"grid.{key}[]") for v in values]

    run = RunConfig(
        train_path=data["train"],
        valid_path=data["valid"],
        test_path=data["test"],
        categories_path=categories,
        reciprocals=_get(data, "reciprocals", True, bool, "data."),
        train=tconf,
        tie_policy=tie,
        out_dir=out_dir,
        grid=grid,
    )
    if allow_grid:
        for _lr, _lam, cell in _grid_cells(run):
            cell.train.validate()
    return run


def _grid_cells(cfg: RunConfig):
    """``(learning_rate, lambda, run config)`` of each grid cell, in
    leaderboard order; an absent grid key takes its standard set."""
    for lr in cfg.grid.get("learning_rate", LEARNING_RATE_GRID):
        for lam in cfg.grid.get("lambda", LAMBDA_GRID):
            spec = replace(cfg.train.regularizer, lam=lam)
            yield lr, lam, replace(cfg, train=replace(cfg.train, learning_rate=lr, regularizer=spec))


def _load_store(cfg: RunConfig):
    store = load_dataset(cfg.train_path, cfg.valid_path, cfg.test_path)
    categories = None
    if cfg.categories_path is not None:
        categories = load_categories(cfg.categories_path, store.vocab)
    if cfg.reciprocals:
        store = add_reciprocals(store)
    return store, categories


def _run_training(cfg: RunConfig, store, categories):
    params, eps, history = train(cfg.train, store, categories)
    report = evaluate(params, store.valid, store.filter_index, tie=cfg.tie_policy)
    return params, eps, history, report


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    out = _out_dir(cfg.out_dir)
    params, eps, history, report = _run_training(cfg, *_load_store(cfg))
    save_checkpoint(params, eps, out / "checkpoint.erkg")
    _write_json(out / "history.json", history.to_json_list())
    _write_json(out / "valid_report.json", report.to_json_dict())
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    if args.out:
        _out_dir(Path(args.out).parent)
    params, _eps = load_checkpoint(args.checkpoint)
    store = load_dataset(args.train, args.valid, args.test)
    if not args.no_reciprocals:
        store = add_reciprocals(store)
    for what, ours, data in (
        ("entities", params.n_entities, store.vocab.n_entities),
        ("relations", params.n_relations, store.vocab.n_relations),
    ):
        if ours != data:
            raise ConfigError(f"checkpoint has {ours} {what}, data has {data}")
    report = evaluate(params, store.split(args.split), store.filter_index, tie=args.tie_policy)
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    if args.out:
        _write_json(args.out, report.to_json_dict())
    return 0


def cmd_verify_theorems(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("no variants requested")
    norm_order = {v: nuclear.check_pairing(v, args.mechanism).norm_order for v in variants}
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
        I, J, K, D = dims
    except ValueError as exc:
        raise ConfigError(f"--dims must be I,J,K,D, got {args.dims!r}") from exc

    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    out = _out_dir(args.out) if args.out else None
    reports = []
    any_bad = False
    for s in range(args.seeds):
        seed = args.seed + s
        for v in variants:
            row = {"seed": seed, "I": I, "J": J, "K": K, "D": D,
                   "mechanism": args.mechanism}
            try:
                inst = nuclear.make_instance(*dims, norm_order[v], args.mechanism, seed)
                rep = nuclear.check_instance(inst, v, args.restarts)
                row.update(asdict(rep))
                row["feasible"] = True
                if rep.flagged:
                    any_bad = True
            except InfeasibleError as exc:
                row.update({"variant": v, "feasible": False, "error": str(exc)})
                any_bad = True
            except MemoryError as exc:
                raise ConfigError(f"--dims {args.dims}: cannot allocate the instance") from exc
            reports.append(row)
            print(json.dumps(row, sort_keys=True))
    if out is not None:
        _write_json(out / "theorem_reports.json", reports)
    return 1 if any_bad else 0


def cmd_synth(args) -> int:
    what = f"--relations {args.relations} with --triples-per-relation {args.triples_per_relation}"
    check_memory(24 * args.relations * args.triples_per_relation, what, "the triples")
    try:
        store, cmap = generate_synthetic(
            n_entities=args.entities,
            n_categories=args.categories,
            n_relations=args.relations,
            triples_per_relation=args.triples_per_relation,
            noise_rate=args.noise,
            seed=args.seed,
        )
    except MemoryError as exc:
        raise ConfigError(f"--entities {args.entities}, {what}: cannot allocate the graph") from exc
    out = Path(args.out)
    save_triples(store, out)
    save_categories(cmap, store.vocab, out / "categories.txt")
    counts = {name: int(len(arr)) for name, arr in store.splits()}
    counts["entities"] = store.vocab.n_entities
    counts["relations"] = store.vocab.n_relations
    print(json.dumps(counts, sort_keys=True))
    return 0


def cmd_gridsearch(args) -> int:
    cfg = load_run_config(args.config, allow_grid=True)
    out = _out_dir(args.out if args.out is not None else cfg.out_dir)
    data = _load_store(cfg)
    rows = []
    for lr, lam, cell in _grid_cells(cfg):
        row = {"learning_rate": lr, "lambda": lam}
        try:
            _params, _eps, _history, report = _run_training(cell, *data)
            row.update(report.to_json_dict())
            row["status"] = "ok"
        except ErkgError as exc:
            row["status"] = f"failed: {exc}"
        rows.append(row)
    ok_rows = [r for r in rows if r["status"] == "ok"]
    best = max(ok_rows, key=lambda r: r["mrr"], default=None)
    for row in rows:
        row["best"] = best is not None and row is best
    _write_json(out / "leaderboard.json", rows)
    print(json.dumps({"cells": len(rows), "best": best}, sort_keys=True))
    return 0


def cmd_preset(args) -> int:
    tconf = get_preset(args.model, args.dataset, args.scale)
    dataset = args.dataset.lower()
    doc = {
        "model": tconf.model,
        "data": {
            **{split: f"data/{dataset}/{split}.txt" for split in ("train", "valid", "test")},
            "categories": None,
            "reciprocals": True,
        },
        "train": _section_doc(tconf, "model", "regularizer"),
        "regularizer": _section_doc(tconf.regularizer),
        "eval": {"tie_policy": "mean"},
        "output": {"dir": f"runs/{tconf.model}-{dataset}-{args.scale}"},
    }
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erkg",
        description="Knowledge-graph embedding training, evaluation, "
        "and nuclear-norm identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override output dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank a split against a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--split", choices=("valid", "test"), default="valid")
    p.add_argument("--tie-policy", choices=TIE_POLICIES, default="mean")
    p.add_argument("--no-reciprocals", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify-theorems", help="nuclear-norm identity checks")
    p.add_argument("--variants", default="amgm4")
    p.add_argument("--mechanism", choices=nuclear.MECHANISMS, default="bilinear")
    p.add_argument("--dims", default="3,2,3,2", help="I,J,K,D")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="base instance seed")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_theorems)

    p = sub.add_parser("synth", help="generate a category-patterned KG")
    p.add_argument("--entities", type=int, default=200)
    p.add_argument("--categories", type=int, default=4)
    p.add_argument("--relations", type=int, default=6)
    p.add_argument("--triples-per-relation", type=int, default=300)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gridsearch", help="train every grid cell, rank by MRR")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("preset", help="print a config skeleton")
    p.add_argument("model")
    p.add_argument("dataset")
    p.add_argument("--scale", choices=("paper", "desk"), default="desk")
    p.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
