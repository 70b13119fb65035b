"""Acceptance gate: one test per release criterion, one printed verdict each.

Every test funnels its checks into a single PASS/FAIL line (written straight
to the terminal, bypassing capture) so a full run reads as a nine-line
scorecard. Tolerances are fixed here and nowhere else; the unit suites pin
the same behavior at finer grain.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gcalab.attention import visibility
from gcalab.backbone import ModelConfig, build, count_parameters
from gcalab.cli import main
from gcalab.data import SynthSpec
from gcalab.errors import InfeasibleMatchError
from gcalab.gca import GcaBlock, GcaConfig
from gcalab.metrics import (
    auc,
    five_number_summary,
    masked_abs_cosine,
    ndcg_at_k,
    pearson_r,
)
from gcalab.runner import (
    ComparisonSpec,
    RunSpec,
    TrainingParams,
    match_parameters,
    run_comparison,
    run_train,
)
from gcalab.tensor import ParameterStore, Tensor

from op_suite import CASES, FAMILIES, run_case, run_family
from test_backbone import PARAM_COUNT_CONFIGS


def verdict(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_1_gradient_suite(capsys):
    started = time.monotonic()
    worst = 0.0
    for case in CASES:
        worst = max(worst, max(run_case(case).values()))
    for name, sampler in FAMILIES:
        worst = max(worst, run_family(name, sampler, samples=20, seed=0))
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 60.0
    verdict(
        capsys, "gradient suite", ok,
        f"{len(CASES)} fixed cases + {len(FAMILIES)} families x 20 shapes, "
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_2_zero_gate_reduction(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for instance in range(100):
        d = int(rng.choice([2, 4, 6, 8]))
        cfg = GcaConfig(
            gate_activation="tanh",
            use_layernorm=bool(instance % 2 == 0),
            heads=int(rng.choice([h for h in (1, 2, d) if d % h == 0])),
            gate_hidden=int(rng.integers(1, 2 * d + 1)) if rng.random() < 0.5 else None,
        )
        store = ParameterStore(seed=int(rng.integers(0, 2**31)))
        block = GcaBlock(store, "gca.0.a", d, cfg)
        batch, len_q, len_kv = (int(rng.integers(1, 5)) for _ in range(3))

        def side(length):
            mask = np.zeros((batch, length), dtype=bool)
            for row in range(batch):
                mask[row, : int(rng.integers(1, length + 1))] = True
            return rng.normal(size=(batch, length, d)) * mask[:, :, None], mask

        query, q_mask = side(len_q)
        kv, kv_mask = side(len_kv)
        seen = visibility(kv_mask, len_q, causal=False)
        out = block(Tensor(query), q_mask, Tensor(kv), kv_mask, seen).data
        if cfg.use_layernorm:
            mu = query.mean(axis=-1, keepdims=True)
            var = query.var(axis=-1, keepdims=True)
            expected = (query - mu) / np.sqrt(var + 1e-8) * q_mask[:, :, None]
        else:
            expected = query
        worst = max(worst, float(np.abs(out - expected).max()))
    ok = worst <= 1e-12
    verdict(capsys, "zero-gate reduction", ok, f"100 instances, max |diff| {worst:.2e}")


def test_3_metric_oracles(capsys):
    levels = (-1.0, 0.25, 1.0)
    checked = 0
    exact = True
    for count in range(1, 9):
        for scores in itertools.product(levels, repeat=count):
            values = np.array(scores)
            for positive in range(count):
                pos = values[positive]
                order = sorted(range(count), key=lambda i: (-values[i], i))
                rank = order.index(positive) + 1
                for k in (1, count):
                    expected = 1.0 / math.log2(1.0 + rank) if rank <= k else 0.0
                    exact &= ndcg_at_k(values, positive, k) == expected
                if count >= 2:
                    credit = [1.0 if v < pos else 0.5 if v == pos else 0.0
                              for i, v in enumerate(values) if i != positive]
                    exact &= auc(values, positive) == sum(credit) / len(credit)
                checked += 1

    rng = np.random.default_rng(9)
    close = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 40))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n) + 0.5 * xs
        covariance = ((xs - xs.mean()) * (ys - ys.mean())).mean()
        oracle = covariance / (xs.std() * ys.std())
        close = max(close, abs(pearson_r(xs, ys) - oracle))
        slope, offset = rng.uniform(0.5, 2.0), rng.normal()
        close = max(close, abs(pearson_r(xs, slope * xs + offset) - 1.0))
        close = max(close, abs(pearson_r(xs, -slope * xs + offset) + 1.0))
        summary = five_number_summary(xs)
        for name, q in (("min", 0.0), ("q1", 0.25), ("median", 0.5), ("q3", 0.75), ("max", 1.0)):
            close = max(close, abs(summary[name] - float(np.quantile(xs, q, method="linear"))))
    ok = exact and close <= 1e-12
    verdict(
        capsys, "metric oracles", ok,
        f"{checked} ranked lists exact, pearson/five-number off by {close:.2e}",
    )


def test_4_probe_correctness(capsys):
    rng = np.random.default_rng(3)
    batch, length, width = 3, 5, 8
    mask = np.ones((batch, length), dtype=bool)
    mask[1, 3:] = False

    x = np.zeros((batch, length, width))
    xprime = np.zeros_like(x)
    x[..., 0::2] = rng.normal(size=(batch, length, width // 2))
    xprime[..., 1::2] = rng.normal(size=(batch, length, width // 2))
    total, n = masked_abs_cosine(x, xprime, mask)
    orthogonal_err = abs(total / n)

    dense = rng.normal(size=(batch, length, width)) + 0.1
    total, n = masked_abs_cosine(dense, dense, mask)
    identical_err = abs(total / n - 1.0)

    mixed = np.zeros((batch, length, width))
    mixed_prime = np.zeros_like(mixed)
    mixed[..., 0] = 1.0
    mixed_prime[..., 0] = np.where(rng.random((batch, length)) < 0.5, 0.6, -0.6)
    mixed_prime[..., 1] = 0.8
    total, n = masked_abs_cosine(mixed, mixed_prime, mask)
    mixed_err = abs(total / n - 0.6)

    a = rng.normal(size=(batch, length, width))
    b = rng.normal(size=(batch, length, width))
    base_total, base_n = masked_abs_cosine(a, b, mask)
    scaled_total, scaled_n = masked_abs_cosine(1737.5 * a, -0.003 * b, mask)
    scale_err = abs(base_total / base_n - scaled_total / scaled_n)

    worst = max(orthogonal_err, identical_err, mixed_err, scale_err)
    ok = worst <= 1e-12
    verdict(
        capsys, "probe correctness", ok,
        f"orthogonal {orthogonal_err:.1e}, identical {identical_err:.1e}, "
        f"mixed {mixed_err:.1e}, scaling {scale_err:.1e}",
    )


def test_5_parameter_accounting(capsys):
    mismatches = [
        cfg for cfg in PARAM_COUNT_CONFIGS
        if build(cfg, seed=0).store.total_size() != count_parameters(cfg)
    ]

    arithmetic_ok = True
    base = ModelConfig(
        vocab_a=50, vocab_b=40, d=12, layers=2, heads=2, encoder_sharing="shared",
        adapter_rank=2, max_len=10,
        gca=GcaConfig(placements=(), heads=3, kv_source="combined"),
    )
    gate = base.gca.gate_width(base.d)
    block = 4 * base.d * base.d + (2 * base.d * gate + gate) + (gate * base.d + base.d) + 2 * base.d
    for k, placements in enumerate(((0,), (0, 1), (0, 1, 2)), start=1):
        grown = replace(base, gca=replace(base.gca, placements=placements))
        arithmetic_ok &= count_parameters(grown) - count_parameters(base) == k * 2 * block

    baseline = ModelConfig(
        vocab_a=200, vocab_b=200, d=32, layers=2, heads=1,
        encoder_sharing="independent", max_len=16,
    )
    variant = replace(baseline, gca=GcaConfig(placements=(0,), kv_source="pairwise", heads=4))
    matched, achieved = match_parameters(baseline, count_parameters(variant), tolerance=0.02)
    error = abs(achieved - count_parameters(variant)) / count_parameters(variant)
    try:
        match_parameters(baseline, 10, tolerance=0.02)
        infeasible_reported = False
    except InfeasibleMatchError as exc:
        infeasible_reported = "nearest" in str(exc)

    ok = not mismatches and arithmetic_ok and error <= 0.02 and infeasible_reported
    verdict(
        capsys, "parameter accounting", ok,
        f"{len(PARAM_COUNT_CONFIGS)} configs closed-form, placement arithmetic "
        f"{'ok' if arithmetic_ok else 'broken'}, match d={matched.d} err {error:.3%}, "
        f"infeasible {'reported' if infeasible_reported else 'silent'}",
    )


def test_6_determinism(capsys, tmp_path):
    spec = RunSpec(
        model={
            "d": 16, "layers": 1, "heads": 2, "encoder_sharing": "independent",
            "combined_thread": False, "dropout_p": 0.2, "max_len": 10,
            "gca": {"placements": [0], "kv_source": "pairwise", "heads": 2},
        },
        data=SynthSpec(users=60, items_per_domain=40, cross_corr=0.6, seq_len_range=(4, 8), seed=5),
        training=TrainingParams(epochs=2, batch_size=32, eval_negatives=20, patience=5),
        seeds=(0,),
        output_dir=str(tmp_path),
    )
    first = run_train(spec, seed=0)
    second = run_train(spec, seed=0)
    identical = first == second and json.dumps(first.to_dict()) == json.dumps(second.to_dict())
    verdict(
        capsys, "determinism", identical,
        f"two executions, records {'identical' if identical else 'diverged'}",
    )


SMOKE_DATA = SynthSpec(users=2000, items_per_domain=200, cross_corr=0.7,
                       seq_len_range=(3, 10), seed=7)
SMOKE_TRAINING = TrainingParams(epochs=12, batch_size=128, lr=1e-3,
                                negatives_per_pos=4, eval_negatives=99, patience=10)


def smoke_model(placements):
    return {
        "d": 32, "layers": 2, "heads": 4,
        "encoder_sharing": "independent", "combined_thread": False,
        "dropout_p": 0.0, "max_len": 16,
        "gca": {
            "placements": placements, "kv_source": "pairwise", "heads": 4,
            "gate_activation": "tanh", "use_layernorm": False,
        },
    }


def test_7_directional_smoke(capsys, tmp_path):
    started = time.monotonic()
    seeds = (0, 1, 2, 3, 4)
    records = {}
    for label, placements in (("baseline", []), ("gca", [0])):
        spec = RunSpec(model=smoke_model(placements), data=SMOKE_DATA,
                       training=SMOKE_TRAINING, seeds=seeds, output_dir=str(tmp_path))
        records[label] = [run_train(spec, seed) for seed in seeds]
    elapsed = time.monotonic() - started

    base_mean = float(np.mean([r.ndcg10_a for r in records["baseline"]]))
    gca_mean = float(np.mean([r.ndcg10_a for r in records["gca"]]))
    # Baselines have no cross-attention, so their cosine probe reads 0.0 by
    # construction; as in runner.analyze, the correlation covers GCA cells only.
    cells = records["gca"]
    r = pearson_r([c.cos_xxprime_a for c in cells], [c.ndcg10_a for c in cells])
    sign = "negative" if r < 0 else "positive" if r > 0 else "zero"
    # Paired by seed: both arms share data and candidate lists, so these show
    # how far the mean margin rests on single seeds.
    diffs = [g.ndcg10_a - b.ndcg10_a for g, b in zip(records["gca"], records["baseline"])]
    paired = ", ".join(f"{d:+.4f}" for d in diffs)

    ok = gca_mean >= base_mean and elapsed < 900.0
    verdict(
        capsys, "directional smoke", ok,
        f"ndcg10_a gca {gca_mean:.4f} vs baseline {base_mean:.4f}, {elapsed:.0f}s; "
        f"ungated: per-seed gca - baseline [{paired}] (min {min(diffs):+.4f}, "
        f"max {max(diffs):+.4f}, sd {float(np.std(diffs)):.4f}); "
        f"r(cos_xxprime_a, ndcg10_a) = {r:+.3f} ({sign}) over {len(cells)} cells",
    )


def test_8_scaling_curve_protocol(capsys, tmp_path):
    base = RunSpec(
        model={
            "d": 32, "layers": 2, "heads": 1,
            "encoder_sharing": "independent", "combined_thread": False,
            "dropout_p": 0.0, "max_len": 16,
        },
        data=SMOKE_DATA,
        training=TrainingParams(epochs=2, batch_size=128, negatives_per_pos=4,
                                eval_negatives=99, patience=10),
        seeds=(0,),
        output_dir=str(tmp_path),
    )
    spec = ComparisonSpec(
        base=base,
        arms={"gca": {"gca.placements": [0], "gca.kv_source": "pairwise", "gca.heads": 4}},
        width_grid=[24, 40],
    )
    report = run_comparison(spec)
    [match] = report.matches
    baselines = [p for p in report.points if p.kind == "baseline"]
    gca_points = [p for p in report.points if p.kind == "gca"]
    counts = [p.param_count for p in baselines]
    paired = all(
        p.param_count > 0 and math.isfinite(p.mean_ndcg10) for p in report.points
    )
    ok = (
        match.relative_error <= 0.02
        and len(gca_points) == 1
        and counts == sorted(set(counts))
        and match.matched_width in [p.d for p in baselines]
        and paired
        and (tmp_path / "scaling.csv").exists()
        and (tmp_path / "scaling.svg").exists()
    )
    verdict(
        capsys, "scaling curve protocol", ok,
        f"matched width {match.matched_width} at {match.relative_error:.3%} error, "
        f"{len(baselines)} baseline widths, accuracy-vs-params table + plot written",
    )


def test_9_cli_pipeline(capsys, tmp_path):
    started = time.monotonic()
    repo = Path(__file__).resolve().parent.parent
    out = tmp_path / "runs"
    events = tmp_path / "events.tsv"

    codes = [main(["gen-data", "--config", str(repo / "configs" / "quickstart.json"),
                   "--out", str(events)])]

    quickstart = json.loads("\n".join(
        line for line in (repo / "configs" / "quickstart.json").read_text().splitlines()
        if not line.lstrip().startswith("//")
    ))
    quickstart["data"] = {"path": str(events)}
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps(quickstart))
    codes.append(main(["train", "--config", str(train_config), "--out", str(out)]))
    codes.append(main(["sweep", "--config", str(repo / "configs" / "sweep.json"),
                       "--out", str(out)]))
    codes.append(main(["analyze", "--out", str(out)]))
    codes.append(main(["report", "--out", str(out)]))
    elapsed = time.monotonic() - started

    artifacts = [
        "results.csv", "aggregates.csv", "analysis.csv", "cosine_summary.csv",
        "orthogonality_a.svg", "orthogonality_b.svg", "cosine_box.svg", "report.md",
    ]
    missing = [name for name in artifacts if not (out / name).exists()]
    ok = codes == [0, 0, 0, 0, 0] and not missing and elapsed < 1200.0
    verdict(
        capsys, "cli pipeline", ok,
        f"exit codes {codes}, {len(artifacts) - len(missing)}/{len(artifacts)} artifacts, "
        f"{elapsed:.0f}s" + (f", missing {missing}" if missing else ""),
    )
