"""Command-line entry points.

Exit codes: 0 on success, 1 when a run fails at runtime (training error,
infeasible match, not enough records; for ``train`` and ``sweep``, any
failed cell), 2 for usage or configuration problems (unknown flags,
unreadable or invalid config files).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .data import generate_synthetic, save_log, SynthSpec
from .errors import ConfigError, GcalabError, ParseError, from_mapping
from .runner import (
    RunSpec,
    ScalingCurveSpec,
    SweepSpec,
    analyze,
    enumerate_sweep,
    resolve_run,
    run_cells,
    run_scaling_curve,
    run_sweep,
    write_report,
)


def load_config(path: str) -> dict:
    """Read a JSON config; lines whose first token is // are comments."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    kept = [line for line in text.splitlines() if not line.lstrip().startswith("//")]
    try:
        payload = json.loads("\n".join(kept))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcalab",
        description="Dual-domain recommender experiments with gated cross-attention.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, seed=False, out=False, resume=False):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="JSON config file (// line comments allowed)")
        if seed:
            sub.add_argument("--seed", type=int, default=None)
        if out:
            sub.add_argument("--out", default=None, help="output directory or file")
        if resume:
            sub.add_argument("--resume", action="store_true",
                             help="skip config x seed cells that already have results")
        return sub

    add("gen-data", "generate a synthetic interaction log as TSV", seed=True, out=True)
    add("train", "train one configuration across its seeds", seed=True, out=True, resume=True)
    add("sweep", "run a config grid across seeds", out=True, resume=True)
    add("scaling-curve", "baselines over widths versus the GCA variant", out=True, resume=True)
    analyze_cmd = commands.add_parser("analyze", help="correlations and cosine summaries over recorded runs")
    analyze_cmd.add_argument("--out", required=True, help="directory holding recorded cells")
    report_cmd = commands.add_parser("report", help="write report.md for a results directory")
    report_cmd.add_argument("--out", required=True, help="directory holding recorded cells")
    return parser


def _cmd_gen_data(args) -> int:
    payload = load_config(args.config)
    section = payload.get("data", payload)
    if not isinstance(section, dict) or "users" not in section:
        raise ConfigError("gen-data needs a synthetic data section with user/item counts")
    if args.seed is not None:
        section = {**section, "seed": args.seed}
    spec = from_mapping(SynthSpec, section, "data")
    out = args.out or "events.tsv"
    log = generate_synthetic(spec)
    save_log(log, out)
    print(f"wrote {len(log)} events for {spec.users} users to {out}")
    return 0


def _cmd_train(args) -> int:
    spec = RunSpec.from_dict(load_config(args.config))
    if args.out:
        spec.output_dir = args.out
    if args.seed is not None:
        spec = replace(spec, seeds=(args.seed,))
    [records] = run_cells([resolve_run(spec)], resume=args.resume)
    for seed, record in zip(spec.seeds, records):
        if record is None:
            print(f"seed {seed}: failed (see cell file)", file=sys.stderr)
        else:
            print(
                f"seed {seed}: ndcg10_a={record.ndcg10_a:.4f} ndcg10_b={record.ndcg10_b:.4f} "
                f"best_epoch={record.epoch_of_best}"
            )
    print(f"results under {spec.output_dir}")
    return 1 if None in records else 0


def _cmd_sweep(args) -> int:
    spec = SweepSpec.from_dict(load_config(args.config))
    if args.out:
        spec.base.output_dir = args.out
    records = run_sweep(spec, resume=args.resume)
    print(f"sweep complete: {len(records)} records under {spec.base.output_dir}")
    failed = len(enumerate_sweep(spec)) * len(spec.base.seeds) - len(records)
    if failed:
        print(f"{failed} cells failed (see their cell files)", file=sys.stderr)
    return 1 if failed else 0


def _cmd_scaling(args) -> int:
    spec = ScalingCurveSpec.from_dict(load_config(args.config))
    if args.out:
        spec.base.output_dir = args.out
    report = run_scaling_curve(spec, resume=args.resume)
    print(
        f"matched baseline width {report.matched_width} at {report.achieved_params} params "
        f"(target {report.target_params}, off by {report.relative_error:.2%})"
    )
    for point in report.points:
        print(f"  {point.kind:8s} d={point.d:<4d} params={point.param_count:<8d} "
              f"ndcg10={point.mean_ndcg10:.4f}")
    return 0


def _cmd_analyze(args) -> int:
    report = analyze(args.out)
    for c in report.correlations:
        value = f"omitted ({c.note})" if c.r is None else f"{c.r:+.4f}"
        print(f"domain {c.domain}: r({c.x_field}, {c.y_field}) = {value} over {c.n} runs")
    print(f"analysis written under {report.output_dir}")
    return 0


def _cmd_report(args) -> int:
    path = write_report(args.out)
    print(f"wrote {path}")
    return 0


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "scaling-curve": _cmd_scaling,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GcalabError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
