"""Command-line surface: train, sweep, count-params, gradcheck.

Exit codes: 0 ok, 2 config or usage error (including an unreadable path),
3 numeric abort (NaN loss, or an all-zero symbol row that cannot be
power-normalized), 4 corrupt artifact (checkpoint or dataset file),
5 gradient check failure.  Codes 2, 3 and 4 are the exception classes of
`hyperajscc.errors`: ConfigError (or an OSError), NumericAbortError and
CorruptArtifactError.  A library caller catches these three.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checkpoint import MAGIC, load_model, save_checkpoint
from .config import load_datasets, parse_run_config, parse_seed, parse_seeds, parse_snr_grid
from .errors import ConfigError, CorruptArtifactError, NumericAbortError
from .gradcheck import DEFAULT_TOL, run_suite
from .metrics import snr_sweep, sweep_chart_svg
from .models import build_model, compression_ratio, count_params
from .training import train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CORRUPT = 4
EXIT_GRADCHECK = 5


def _read_config(path: str):
    try:
        with open(path) as fh:
            return parse_run_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(str(exc)) from None


def cmd_train(args) -> int:
    cfg = _read_config(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    train_ds, val_ds = load_datasets(cfg)
    model = build_model(cfg.model, seed=cfg.train.seed)
    records = train(model, train_ds, cfg.train, val_ds)

    ckpt_path = os.path.join(out_dir, "checkpoint.haj")
    save_checkpoint(ckpt_path, model, cfg.text)
    with open(os.path.join(out_dir, "train_log.jsonl"), "w") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)
    report = count_params(model)
    print(
        f"trained {cfg.model.task} model: final loss {records[-1]['loss']:.6f}, "
        f"{report['total_base'] + report['total_introduced']} params "
        f"({report['total_introduced']} introduced), R={compression_ratio(cfg.model):.4g}, "
        f"{sum(r['wall_s'] for r in records):.1f}s -> {ckpt_path}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    model, cfg = load_model(args.checkpoint)
    grid = parse_snr_grid(args.snr_grid) if args.snr_grid is not None else cfg.snr_grid
    seeds = parse_seeds(args.seeds) if args.seeds is not None else cfg.eval_seeds
    _, val_ds = load_datasets(cfg)
    report = snr_sweep(model, val_ds, grid, seeds)
    csv_path = args.csv or os.path.splitext(args.checkpoint)[0] + "_sweep.csv"
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    print(f"sweep over {len(grid)} SNR points x {len(seeds)} seeds -> {csv_path}")
    if args.svg:
        ylabel = "PSNR (dB)" if report.metric == "psnr_db" else "top-1 accuracy"
        with open(args.svg, "w") as fh:
            fh.write(sweep_chart_svg({os.path.basename(args.checkpoint): report}, ylabel))
        print(f"chart -> {args.svg}")
    return EXIT_OK


def cmd_count_params(args) -> int:
    path = args.path
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        model, _ = load_model(path)
    else:
        cfg = _read_config(path)
        model = build_model(cfg.model, seed=cfg.train.seed)
    report = count_params(model)
    print(f"{'layer':<10} {'kind':<14} {'base':>8} {'introduced':>10}")
    for name, kind, base, intro in report["per_layer"]:
        print(f"{name:<10} {kind:<14} {base:>8} {intro:>10}")
    total = report["total_base"] + report["total_introduced"]
    print(f"{'total':<10} {'':<14} {report['total_base']:>8} {report['total_introduced']:>10}")
    print(
        f"storage at 32-bit: {report['bytes_at_32bit']} B "
        f"({report['bytes_at_32bit'] / 1024:.1f} KB); "
        f"introduced only: {report['introduced_bytes_at_32bit']} B "
        f"({report['introduced_bytes_at_32bit'] / 1024:.2f} KB)"
    )
    if total:
        print(f"introduced/base ratio: {report['total_introduced'] / max(report['total_base'], 1):.4%}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_suite(size=args.size, seed=parse_seed(args.seed))
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.op:<24} max rel err {r.max_rel_err:.3e} (tol {DEFAULT_TOL:g})")
    if failed:
        print(f"{len(failed)} op(s) failed gradient check", file=sys.stderr)
        return EXIT_GRADCHECK
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hyperajscc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config")
    p.add_argument("--out", default="runs/latest")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep", help="metric vs test SNR for a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--snr-grid", default=None, help="LO:HI:STEP or comma list, in dB")
    p.add_argument("--seeds", default=None, help="comma list of noise seeds")
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("count-params", help="parameter accounting for a config or checkpoint")
    p.add_argument("path")
    p.set_defaults(fn=cmd_count_params)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--size", choices=("tiny", "small"), default="tiny")
    p.add_argument("--seed", default="0", help="non-negative integer")
    p.set_defaults(fn=cmd_gradcheck)
    return ap


# argparse reads a value that starts with '-' and is not a plain number
# (-4:10:2, -5,0) as an option, so these flags take the next word whole
_SIGNED_VALUE_FLAGS = ("--snr-grid", "--seeds")


def _join_signed_values(argv: list[str]) -> list[str]:
    """['--snr-grid', '-4:10:2'] -> ['--snr-grid=-4:10:2'], the form argparse reads as one value."""
    out = []
    for word in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_signed_values(argv))
    except SystemExit as exc:  # argparse has printed a usage error (2) or --help (0)
        return exc.code
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericAbortError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CorruptArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT


if __name__ == "__main__":
    sys.exit(main())
