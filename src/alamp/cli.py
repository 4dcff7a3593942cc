"""Command-line front end: run experiments, generate and rebalance datasets.

Subcommands:
    run        execute one acquisition strategy over one or more seeds
    compare    run several strategies with shared seeds, print a gain table
    synth      write a synthetic Gaussian-blob embedding CSV
    imbalance  subsample a CSV to a target imbalance ratio

Exit codes: 0 success, 1 runtime failure, 2 usage error (a bad flag, config
value, dataset parameter or file, unreadable input file, or budget plan). `run` and
`compare` also read their flags from a JSON config file (--config); explicit
flags override file values, which override the defaults. Config files are
strict: an unknown key or a value of the wrong JSON type is a usage error;
each key has its flag's type, so seeds, strategies and --synth are strings.
Seeds must be distinct non-negative integers, and --synth excludes --train and
--test; every setting is checked before any data is loaded. `compare` runs all
strategies of one seed from that seed's shared batch and initial model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dataset as ds
from . import engine, metrics

USAGE_ERROR = 2
RUNTIME_ERROR = 1

# Used for a setting that neither a flag nor the config file gives.
DEFAULTS = {"budget": 3200, "iters": 16, "seeds": "0..4", "cost_sensitive": True,
            "out": ".", "format": "json"}

# The one JSON type of each config key, that of its flag's value; `run` takes
# `af`, `compare` takes `afs`. Flags are typed by argparse.
CONFIG_TYPES = {
    "train": str, "test": str, "synth": str, "budget": int, "iters": int,
    "seeds": str, "cost_sensitive": bool, "out": str, "format": str,
    "af": str, "afs": str,
}
JSON_TYPE_NAMES = {str: "string", int: "integer", bool: "boolean"}


class CliError(Exception):
    """Config or usage problem: reported with exit code 2."""


def parse_seeds(spec: str):
    """Parse distinct non-negative seeds: '0..4' (inclusive range) or '0,1,2'."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise CliError(f"cannot parse seeds {spec!r}") from None
    if not seeds:
        raise CliError(f"empty seed range {spec!r}" if ".." in spec else "no seeds given")
    if min(seeds) < 0:
        raise CliError(f"seeds must be non-negative, got {spec!r}")
    if len(set(seeds)) != len(seeds):
        raise CliError(f"seeds must be distinct, got {spec!r}")
    return seeds


def _load_config(args: argparse.Namespace) -> None:
    """Fill each unset flag from the config file, else from DEFAULTS."""
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise CliError("config file must hold a JSON object")
    accepted = sorted(key for key in vars(args) if key in CONFIG_TYPES)
    for key, value in config.items():
        if key not in accepted:
            raise CliError(f"unknown config key {key!r}; {args.command} accepts "
                           f"{', '.join(accepted)}")
        kind = CONFIG_TYPES[key]
        if type(value) is not kind:  # exact, as true/false is not an integer
            raise CliError(f"config key {key!r} must be a JSON {JSON_TYPE_NAMES[kind]}, "
                           f"got {value!r}")
    for key in accepted:
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, DEFAULTS.get(key)))
    if args.format not in metrics.REPORT_FORMATS:
        raise CliError(f"unknown report format {args.format!r}; choose from "
                       f"{', '.join(metrics.REPORT_FORMATS)}")


def _load(path):
    """The dataset CSV at `path`; a file that cannot be read is a usage error."""
    try:
        return ds.load_dataset(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _load_pair(args):
    """Train/test datasets from CSVs or from synth parameters."""
    if args.synth and (args.train or args.test):
        raise CliError("--synth excludes --train and --test")
    if args.train and args.test:
        name = os.path.splitext(os.path.basename(args.train))[0]
        return _load(args.train), _load(args.test), name
    if args.synth:
        n_classes, per_class, dim, std, seed = _parse_synth(args.synth)
        full = ds.make_synthetic(n_classes, per_class, dim, std, seed)
        train, test = ds.train_test_split(full, 0.2, seed + 1)
        return train, test, f"synth{n_classes}x{per_class}d{dim}"
    raise CliError("provide --train and --test CSVs, or --synth parameters")


def _parse_synth(spec: str):
    parts = spec.split(",")
    if len(parts) != 5:
        raise CliError("--synth expects n_classes,per_class,dim,cluster_std,seed")
    try:
        params = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]), int(parts[4])
    except ValueError:
        raise CliError(f"bad --synth value {spec!r}") from None
    if params[4] < 0:
        raise CliError(f"--synth seed must be non-negative, got {spec!r}")
    return params


def _run_grid(afs, args):
    """Run every strategy on each seed from the seed's shared initial model.

    Every setting is checked before any data is loaded. Writes one report per
    strategy and seed plus one aggregate per strategy; returns the reports of
    each strategy in seed order.
    """
    for af in afs:
        if af not in engine.AF_NAMES:
            raise CliError(f"unknown acquisition function {af!r}; "
                           f"choose from {', '.join(engine.AF_NAMES)}")
    plan = engine.BudgetPlan(total_budget=args.budget, iterations=args.iters)
    seeds = parse_seeds(args.seeds)
    train, test, name = _load_pair(args)

    os.makedirs(args.out, exist_ok=True)
    reports = {af: [] for af in afs}
    for seed in seeds:
        for af, report in zip(afs, engine.run_strategies(
                train, test, afs, plan, seed, args.cost_sensitive, name)):
            path = os.path.join(args.out, f"{name}_{af}_seed{seed}.{args.format}")
            metrics.write_report(report, path, format=args.format)
            reports[af].append(report)
    for af, runs in reports.items():
        path = os.path.join(args.out, f"{name}_{af}_aggregate.{args.format}")
        metrics.write_aggregate(metrics.aggregate(runs), path, format=args.format)
    return reports


def cmd_run(args) -> int:
    _load_config(args)
    if args.af is None:
        raise CliError("missing --af")
    reports = _run_grid([args.af], args)
    print(f"wrote {len(reports[args.af])} report(s) + aggregate for {args.af} to "
          f"{args.out}")
    return 0


def cmd_compare(args) -> int:
    _load_config(args)
    if args.afs is None:
        afs = list(engine.AF_NAMES)
    else:
        afs = [a.strip() for a in args.afs.split(",") if a.strip()]
    if "random" not in afs:
        afs = ["random"] + afs
    afs = list(dict.fromkeys(afs))

    reports = _run_grid(afs, args)
    mean_avg = {}
    for af in afs:
        avgs = [metrics.average_accuracy(r) for r in reports[af]]
        mean_avg[af] = sum(avgs) / len(avgs)

    baseline = mean_avg["random"]
    print(f"{'af':<12}{'avg_acc':>10}{'gain_vs_random_pts':>22}")
    for af in afs:
        gain = 100.0 * (mean_avg[af] - baseline)
        print(f"{af:<12}{mean_avg[af]:>10.4f}{gain:>22.2f}")
    return 0


def cmd_synth(args) -> int:
    parse_seeds(str(args.seed))
    data = ds.make_synthetic(args.classes, args.per_class, args.dim,
                             args.cluster_std, args.seed)
    ds.write_dataset(data, args.output)
    print(f"wrote {data.n_samples} samples ({data.n_classes} classes, dim {data.dim}) "
          f"to {args.output}")
    return 0


def cmd_imbalance(args) -> int:
    parse_seeds(str(args.seed))
    data = _load(args.input)
    skewed = ds.induce_imbalance(data, args.target_ir, args.min_per_class, args.seed)
    ds.write_dataset(skewed, args.output)
    achieved = ds.imbalance_ratio(skewed.class_counts())
    print(f"wrote {skewed.n_samples} samples to {args.output}; "
          f"achieved ir {achieved:.4f} (target {args.target_ir})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alamp",
        description="Pool-based active learning simulation over embedding CSVs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--train", help="training embedding CSV (pool + oracle labels)")
        p.add_argument("--test", help="held-out embedding CSV for accuracy")
        p.add_argument("--synth",
                       help="synthetic data instead of CSVs: "
                            "n_classes,per_class,dim,cluster_std,seed")
        p.add_argument("--budget", type=int,
                       help=f"total budget b (default {DEFAULTS['budget']})")
        p.add_argument("--iters", type=int,
                       help=f"iterations t (default {DEFAULTS['iters']})")
        p.add_argument("--seeds", help="distinct non-negative seeds, '0..4' or '0,1,2' "
                                       f"(default {DEFAULTS['seeds']})")
        p.add_argument("--cost-sensitive", dest="cost_sensitive",
                       action="store_true", default=None)
        p.add_argument("--no-cost-sensitive", dest="cost_sensitive",
                       action="store_false")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--format", choices=metrics.REPORT_FORMATS, help="report format")
        p.add_argument("--config", help="JSON config file; flags override its values")

    p_run = sub.add_parser("run", help="run one acquisition strategy")
    common(p_run)
    p_run.add_argument("--af", help=f"one of {', '.join(engine.AF_NAMES)}")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several strategies, print gain table")
    common(p_cmp)
    p_cmp.add_argument("--afs", help="comma-separated strategies (default: all)")
    p_cmp.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="write a synthetic embedding CSV")
    p_synth.add_argument("--classes", type=int, required=True)
    p_synth.add_argument("--per-class", dest="per_class", type=int, required=True)
    p_synth.add_argument("--dim", type=int, required=True)
    p_synth.add_argument("--cluster-std", dest="cluster_std", type=float, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_imb = sub.add_parser("imbalance", help="subsample a CSV to a target imbalance ratio")
    p_imb.add_argument("--input", required=True)
    p_imb.add_argument("--target-ir", dest="target_ir", type=float, required=True)
    p_imb.add_argument("--min-per-class", dest="min_per_class", type=int, default=1)
    p_imb.add_argument("--seed", type=int, default=0)
    p_imb.add_argument("--output", required=True)
    p_imb.set_defaults(func=cmd_imbalance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ds.DatasetError, engine.EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # runtime failures: I/O, numerical, etc.
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
