"""Command-line surface: train, kfold, sweep, predict, ensemble, evaluate."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from pathlib import Path

from .data import binarize_label, load_subtask1_tsv, load_subtask2_labels, text_lines
from .ensemble import (
    is_bit_vector,
    read_predictions,
    vote_binary,
    vote_multilabel,
    write_predictions,
)
from .errors import ConfigError, ContractError, PcldetectError
from .metrics import format_report, macro_f1, prf1_positive
from .trainer import RunConfig, lambda_sweep, predict_records, run_kfold, run_single_fold

DATA_DIR_ENV = "PCLDETECT_DATA_DIR"

DEFAULT_LAMBDA_GRID = (0.6, 1.6, 2.6, 3.6, 4.6, 5.6, 6.6)


def _resolve(path: str) -> str:
    """Relative data paths fall back to $PCLDETECT_DATA_DIR when set."""
    p = Path(path)
    if p.is_absolute() or p.exists():
        return str(p)
    base = os.environ.get(DATA_DIR_ENV)
    if base and (Path(base) / p).exists():
        return str(Path(base) / p)
    return str(p)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field; the field's metadata holds its help and any other name."""
    parser.add_argument("--config", help="key=value config file; flags override it")
    for field in dataclasses.fields(RunConfig):
        flag = field.metadata["flag"] or "--" + field.name.replace("_", "-")
        # no type: RunConfig.from_mapping parses a flag's string as it parses a config file's
        action = argparse.BooleanOptionalAction if field.type == "bool" else "store"
        parser.add_argument(flag, dest=field.name, action=action, default=None,
                            help=field.metadata["help"])


def _build_config(args) -> RunConfig:
    overrides = {}
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name)
        if value is not None:
            overrides[field.name] = value
    if args.config:
        config = RunConfig.from_file(_resolve(args.config), overrides)
    else:
        config = RunConfig.from_mapping(overrides)
    # a data path falls back to $PCLDETECT_DATA_DIR whether a flag or the file set it
    paths = ("data_path", "negatives_path")
    return dataclasses.replace(
        config, **{key: _resolve(getattr(config, key)) for key in paths if getattr(config, key)}
    )


def _cmd_train(args) -> int:
    config = _build_config(args)
    outcome = run_single_fold(config, config.out_dir)
    print(
        f"fold {outcome.fold}: best metric {outcome.best_metric:.6f} "
        f"at step {outcome.best_step} ({outcome.steps_taken} steps, "
        f"early stop: {outcome.stopped_early})"
    )
    print(f"checkpoint: {outcome.checkpoint_path}")
    return 0


def _cmd_kfold(args) -> int:
    config = _build_config(args)
    report, outcomes = run_kfold(config, config.out_dir)
    for o in outcomes:
        print(f"fold {o.fold}\t{o.best_metric:.6f}")
    print(f"mean\t{report.mean_val:.6f}")
    print(f"report: {Path(config.out_dir) / 'report.json'}")
    return 0


def _parse_grid(text: str) -> list[float]:
    grid = []
    for cell in filter(None, (x.strip() for x in text.split(","))):
        try:
            lam = float(cell)
        except ValueError:
            lam = math.nan
        if not (math.isfinite(lam) and lam > 0):
            raise ConfigError(f"--grid value {cell!r} is not a positive number")
        grid.append(lam)
    return grid


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    config = _build_config(args)
    rows = lambda_sweep(config, grid, config.out_dir)
    print("lambda\tmean_metric\tstd")
    for lam, mean, std in rows:
        print(f"{lam:g}\t{mean:.6f}\t{std:.6f}")
    return 0


def _load_records(path: str, input_format: str):
    path = _resolve(path)
    if input_format == "subtask2":
        return load_subtask2_labels(path)
    return load_subtask1_tsv(path)


def _check_out(path: str) -> None:
    """Refuse an --out that is a directory or whose directory is missing."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"--out {path}: {out.parent} is not an existing directory")


def _cmd_predict(args) -> int:
    _check_out(args.out)
    records = _load_records(args.data, args.input_format)
    if not records:
        raise ContractError(f"{args.data}: no paragraphs to predict")
    par_ids, labels = predict_records(_resolve(args.checkpoint), records)
    write_predictions(args.out, par_ids, labels)
    print(f"wrote {len(par_ids)} predictions to {args.out}")
    return 0


def _cmd_ensemble(args) -> int:
    _check_out(args.out)
    paths = []
    for chunk in args.preds:
        paths.extend(p for p in chunk.split(",") if p)
    loaded = [read_predictions(_resolve(p)) for p in paths]
    if len(loaded) < 3:
        raise ConfigError(f"ensemble fusion needs at least 3 prediction files, got {len(loaded)}")
    for path, (pids, _) in zip(paths, loaded):
        if not pids:
            raise ContractError(f"{path}: no predictions")
    base_ids = loaded[0][0]
    for pids, _ in loaded[1:]:
        if pids != base_ids:
            raise ContractError("prediction files disagree on par_id order")
    label_sets = [labels for _, labels in loaded]
    kinds = {is_bit_vector(labels[0]) for labels in label_sets}
    if len(kinds) != 1:
        raise ContractError("prediction files mix plain labels and bit vectors")
    fused = vote_multilabel(label_sets) if kinds.pop() else vote_binary(label_sets)
    write_predictions(args.out, base_ids, fused)
    print(f"fused {len(paths)} voters over {len(base_ids)} examples into {args.out}")
    return 0


def _labels_by_par_id(path: str, subtask: int) -> dict:
    """Gold or prediction labels keyed by par_id; accepts either file format."""
    path = _resolve(path)
    first = next((line for _, line in text_lines(path) if line.strip()), "")
    if first.count("\t") == 5:  # full labeled TSV rather than a prediction file
        if subtask == 1:
            records = load_subtask1_tsv(path)
            labels = {r.par_id: binarize_label(r.raw_label) for r in records}
            if len(labels) != len(records):
                raise ContractError(f"{path}: {len(records) - len(labels)} duplicate par_ids")
            return labels
        records = load_subtask2_labels(path)
        return {r.par_id: tuple(r.category_vector) for r in records}
    par_ids, labels = read_predictions(path)
    if labels and is_bit_vector(labels[0]) != (subtask == 2):
        needed = "bit vectors" if subtask == 2 else "plain labels"
        raise ContractError(f"{path}: subtask {subtask} needs {needed}, which this file does not hold")
    return dict(zip(par_ids, labels))


def _cmd_evaluate(args) -> int:
    golds = _labels_by_par_id(args.gold, args.subtask)
    preds = _labels_by_par_id(args.pred, args.subtask)
    missing = [pid for pid in golds if pid not in preds]
    if missing:
        raise ContractError(f"predictions missing {len(missing)} par_ids, e.g. {missing[:3]}")
    unknown = [pid for pid in preds if pid not in golds]
    if unknown:
        raise ContractError(
            f"predictions hold {len(unknown)} par_ids absent from the gold file, "
            f"e.g. {unknown[:3]}"
        )
    ordered_golds = [golds[pid] for pid in golds]
    ordered_preds = [preds[pid] for pid in golds]
    if args.subtask == 1:
        p, r, f1 = prf1_positive(ordered_preds, ordered_golds)
        print(format_report({"precision": p, "recall": r, "f1": f1}))
    else:
        per_class, macro = macro_f1(ordered_preds, ordered_golds)
        print(format_report({"per_class_f1": per_class, "macro_f1": macro}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcldetect",
        description="Fine-tuning toolkit for condescending-language detection "
        "on a desk-scale transformer.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one held-out fold")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("kfold", help="train every fold and report the mean metric")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_kfold)

    p = sub.add_parser("sweep", help="k-fold run per lambda in a grid")
    _add_config_flags(p)
    p.add_argument(
        "--grid",
        default=",".join(str(x) for x in DEFAULT_LAMBDA_GRID),
        help="comma-separated lambda values",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("predict", help="write predictions for a data file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--input-format", choices=("subtask1", "subtask2"), default="subtask1")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("ensemble", help="majority-vote fusion of prediction files")
    p.add_argument("--preds", nargs="+", required=True,
                   help="3+ prediction files (comma or space separated)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--subtask", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (PcldetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
