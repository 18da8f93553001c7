"""Command-line entry point.

Subcommands: ``train``, ``evaluate``, ``verify-theorems``, ``synth``,
``gridsearch``, ``preset``.  Configs are strict JSON (unknown keys are
rejected by name).  Exit codes: 0 success, 1 verification or tolerance
failure, 2 usage/config error, 3 numeric abort.  Inputs are never
mutated.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import nuclear
from .data import (
    add_reciprocals,
    build_filter_index,
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
    VocabError,
)
from .models import ModelKind
from .presets import LAMBDA_GRID, LEARNING_RATE_GRID, get_preset
from .ranking import TIE_POLICIES, evaluate
from .regularizers import RegularizerSpec
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

logger = logging.getLogger(__name__)


def _write_json(path, obj) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
        fh.write("\n")


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {where}{key}")


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _typed(value, kind: type, name: str):
    """``value`` checked to be of ``kind``, or a ``ConfigError`` naming it.

    Nothing is coerced: ``int`` accepts only integers, ``float`` integers
    or floats (returned as float), and neither accepts ``true``/``false``.
    """
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if not ok:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _get(doc: dict, key: str, default, kind: type, where: str):
    """``doc[key]`` (``default`` when absent), checked by :func:`_typed`."""
    return _typed(doc.get(key, default), kind, where + key)


@dataclass
class RunConfig:
    model: str
    train_path: str
    valid_path: str
    test_path: str
    categories_path: str | None
    reciprocals: bool
    train: TrainConfig
    tie_policy: str
    out_dir: str
    grid: dict = field(default_factory=dict)


def _parse_regularizer(doc: dict) -> RegularizerSpec:
    _check_keys(
        doc,
        {
            "kind", "lambda", "er_mode", "norm_order", "pair_budget",
            "second_order", "path_budget", "tau", "epsilon_init",
            "dissim_weight", "strict_labels",
        },
        "regularizer.",
    )
    w = "regularizer."
    epsilon_init = doc.get("epsilon_init", "batch_median")
    if not isinstance(epsilon_init, str):
        epsilon_init = _typed(epsilon_init, float, w + "epsilon_init")
    spec = RegularizerSpec(
        kind=_get(doc, "kind", "none", str, w),
        lam=_get(doc, "lambda", 0.0, float, w),
        er_mode=_get(doc, "er_mode", "joint", str, w),
        norm_order=_get(doc, "norm_order", 2, int, w),
        pair_budget=_get(doc, "pair_budget", 32, int, w),
        second_order=_get(doc, "second_order", False, bool, w),
        path_budget=_get(doc, "path_budget", 32, int, w),
        tau=_get(doc, "tau", 1.0, float, w),
        epsilon_init=epsilon_init,
        dissim_weight=_get(doc, "dissim_weight", 1.0, float, w),
        strict_labels=_get(doc, "strict_labels", False, bool, w),
    )
    spec.validate()
    return spec


def load_run_config(path, allow_grid: bool = False) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc

    top = {"model", "data", "train", "regularizer", "eval", "output"}
    if allow_grid:
        top = top | {"grid"}
    if "threads" in doc:
        logger.warning(
            "config key 'threads' is deprecated and ignored; set OPENBLAS_NUM_THREADS instead"
        )
        doc = {k: v for k, v in doc.items() if k != "threads"}
    _check_keys(doc, top, "")

    model = doc.get("model")
    if model is None:
        raise ConfigError("config is missing 'model'")
    try:
        ModelKind(model)
    except ValueError as exc:
        raise ConfigError(f"unknown model kind {model!r}") from exc

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

    tdoc = doc.get("train", {})
    _check_keys(
        tdoc,
        {"dim", "batch_size", "learning_rate", "epochs", "seed", "eval_every",
         "adagrad_eps", "patience"},
        "train.",
    )
    spec = _parse_regularizer(doc.get("regularizer", {}))
    w = "train."
    tconf = TrainConfig(
        model=model,
        dim=_get(tdoc, "dim", 64, int, w),
        batch_size=_get(tdoc, "batch_size", 256, int, w),
        learning_rate=_get(tdoc, "learning_rate", 0.1, float, w),
        epochs=_get(tdoc, "epochs", 10, int, w),
        seed=_get(tdoc, "seed", 0, int, w),
        regularizer=spec,
        eval_every=_get(tdoc, "eval_every", 0, int, w),
        adagrad_eps=_get(tdoc, "adagrad_eps", 1e-10, float, w),
        patience=tdoc.get("patience"),
    )
    tconf.validate()

    edoc = doc.get("eval", {})
    _check_keys(edoc, {"tie_policy"}, "eval.")
    tie = _get(edoc, "tie_policy", "mean", str, "eval.")
    if tie not in TIE_POLICIES:
        raise ConfigError(f"unknown eval.tie_policy {tie!r}")

    odoc = doc.get("output", {})
    _check_keys(odoc, {"dir"}, "output.")
    out_dir = _get(odoc, "dir", "runs/out", str, "output.")

    grid = doc.get("grid", {}) if allow_grid else {}
    if grid:
        _check_keys(grid, {"learning_rate", "lambda"}, "grid.")
        for key, values in grid.items():
            if not isinstance(values, list):
                raise ConfigError(f"grid.{key} must be a list, got {values!r}")
            grid[key] = [_typed(v, float, f"grid.{key}[]") for v in values]

    return RunConfig(
        model=model,
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


def _load_store(cfg: RunConfig):
    store = load_dataset(cfg.train_path, cfg.valid_path, cfg.test_path)
    categories = None
    if cfg.categories_path is not None:
        categories = load_categories(cfg.categories_path, store.vocab)
    if cfg.reciprocals:
        store = add_reciprocals(store)
    return store, categories


def _run_training(cfg: RunConfig):
    store, categories = _load_store(cfg)
    if cfg.train.regularizer.kind == "er" and cfg.train.regularizer.er_mode != "joint":
        if categories is None:
            raise ConfigError(
                f"er_mode {cfg.train.regularizer.er_mode!r} needs a category file"
            )
    params, eps, history = train(cfg.train, store, categories)
    filter_index = build_filter_index(store)
    report = evaluate(params, store.valid, filter_index, tie=cfg.tie_policy)
    return store, params, eps, history, report


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _store, params, eps, history, report = _run_training(cfg)
    save_checkpoint(params, eps, out / "checkpoint.erkg")
    _write_json(out / "history.json", history.to_json_list())
    _write_json(out / "valid_report.json", report.to_json_dict())
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
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
    filter_index = build_filter_index(store)
    queries = store.split(args.split)
    report = evaluate(params, queries, filter_index, tie=args.tie_policy)
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    if args.out:
        _write_json(args.out, report.to_json_dict())
    return 0


def cmd_verify_theorems(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("no variants requested")
    for v in variants:
        if v not in nuclear.VARIANTS:
            raise ConfigError(f"unknown variant {v!r}")
        if nuclear.VARIANTS[v].mechanism != args.mechanism:
            raise ConfigError(
                f"variant {v} requires mechanism {nuclear.VARIANTS[v].mechanism!r}, "
                f"requested {args.mechanism!r}"
            )
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
        I, J, K, D = dims
    except ValueError as exc:
        raise ConfigError(f"--dims must be I,J,K,D, got {args.dims!r}") from exc

    reports = []
    any_bad = False
    for s in range(args.seeds):
        seed = args.seed + s
        for v in variants:
            t = nuclear.VARIANTS[v].norm_order
            inst = nuclear.make_instance(I, J, K, D, t, args.mechanism, seed)
            row = {"seed": seed, "I": I, "J": J, "K": K, "D": D,
                   "mechanism": args.mechanism}
            try:
                rep = nuclear.check_instance(inst, v, args.restarts)
                row.update(rep.to_json_dict())
                row["feasible"] = True
                if rep.flagged:
                    any_bad = True
            except InfeasibleError as exc:
                row.update({"variant": v, "feasible": False, "error": str(exc)})
                any_bad = True
            reports.append(row)
            print(json.dumps(row, sort_keys=True))
    if args.out:
        _write_json(Path(args.out) / "theorem_reports.json", reports)
    return 1 if any_bad else 0


def cmd_synth(args) -> int:
    store, cmap = generate_synthetic(
        n_entities=args.entities,
        n_categories=args.categories,
        n_relations=args.relations,
        triples_per_relation=args.triples_per_relation,
        noise_rate=args.noise,
        seed=args.seed,
    )
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
    lrs = cfg.grid.get("learning_rate", LEARNING_RATE_GRID)
    lams = cfg.grid.get("lambda", LAMBDA_GRID)
    out = Path(args.out if args.out is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for lr in lrs:
        for lam in lams:
            cell = RunConfig(**{**cfg.__dict__})
            cell.train = TrainConfig(**{**cfg.train.__dict__})
            cell.train.learning_rate = lr
            cell.train.regularizer = RegularizerSpec(
                **{**cfg.train.regularizer.__dict__}
            )
            cell.train.regularizer.lam = lam
            row = {"learning_rate": lr, "lambda": lam}
            try:
                _store, _params, _eps, _history, report = _run_training(cell)
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
    print(json.dumps(get_preset(args.model, args.dataset, args.scale), indent=2))
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
    except (ConfigError, ParseError, VocabError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
