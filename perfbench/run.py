#!/usr/bin/env python3
"""trendgat benchmark: training and inference workloads, end-to-end metrics,
and a traced run that attributes time to the library's layers.

Run from the repository root:

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with the program unmodified.
``--trace 1`` alternates untraced and traced calls, reports the per-layer
metrics, the tracing overhead and the per-stage forward/backward table at
N in {20, 100, 500}.  ``--workload all`` runs every workload untraced and
traced in this one process, then checks that the workloads separate the
layers they are meant to isolate.  Each run writes a JSON report under
``perfbench/results/``; the last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
1 when any check or operation failed, 2 when the trendgat sources are not
next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

# BLAS threads for this process and its children; set before numpy loads
BLAS_THREADS = min(1, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    """Make ``trendgat`` resolve to the sources of this checkout."""
    if not (SRC / "trendgat" / "__init__.py").is_file():
        print(f"perfbench: no trendgat sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import trendgat
    if SRC not in Path(trendgat.__file__).resolve().parents:
        print(f"perfbench: trendgat imported from {trendgat.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


_import_program()

import numpy as np  # noqa: E402

import stages  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = {  # name: (unit, what it is)
    "setup_s": ("s", "median time of load_panel + select_indicators + build_datasets "
                     "+ init_model (train) or load_model (eval); data generation excluded"),
    "snapshots_per_s": ("1/s", "train: optimizer steps per second of the train call, "
                               "validation included (train_snapshots_per_s); eval: snapshots "
                               "scored per second by evaluate (eval_snapshots_per_s)"),
    "val_acc": ("frac", "train: best validation ACC of the train call; eval: validation ACC "
                        "of the loaded checkpoint"),
    "peak_rss_mb": ("MB", "peak resident memory of this process"),
}

# per-layer metric: (unit, end-to-end metric it should move, where)
LAYER_METRICS = {
    "market_data.load_panel_s": ("s", "setup_s", "most on eval_wide"),
    "market_data.rows_parsed": ("count", "setup_s", "most on eval_wide"),
    "energy_graph.snapshot_ms_p50": ("ms", "setup_s", "all"),
    "energy_graph.offdiag_edges_mean": ("count", "setup_s; edge counts explain val_acc", "all"),
    "energy_graph.isolated_frac": ("frac", "setup_s; edge counts explain val_acc", "all"),
    "gnn_blocks.gatv2_fwd_ms_p50": ("ms", "snapshots_per_s, peak_rss_mb",
                                    "train_wide and eval_wide; flat-ish on train_small"),
    "gnn_blocks.gatv2_useful_pair_frac": ("frac", "snapshots_per_s, peak_rss_mb",
                                          "train_wide and eval_wide; flat-ish on train_small"),
    "gnn_blocks.mha_fwd_ms_p50": ("ms", "snapshots_per_s", "all train workloads"),
    "autodiff.backward_ms_p50": ("ms", "snapshots_per_s", "train_*; none on eval_wide"),
    "autodiff.backward_ms_p90": ("ms", "snapshots_per_s", "train_*; none on eval_wide"),
    "autodiff.tape_ops_per_step": ("count", "snapshots_per_s", "train_*; none on eval_wide"),
    "model.forward_ms_p50": ("ms", "snapshots_per_s, time_to_target_s", "train_*"),
    "model.loss_ms_p50": ("ms", "snapshots_per_s, time_to_target_s", "train_*"),
    "model.step_ms_p50": ("ms", "snapshots_per_s, time_to_target_s", "train_*"),
    "model.step_ms_p90": ("ms", "snapshots_per_s, time_to_target_s", "train_*"),
    "model.adamw_step_ms_p50": ("ms", "snapshots_per_s, time_to_target_s",
                                "train_small; flat on train_wide and eval_wide"),
    "model.clone_ms_total": ("ms", "snapshots_per_s, time_to_target_s",
                             "train_small; flat on train_wide and eval_wide"),
    "model.load_model_ms": ("ms", "setup_s", "eval_wide"),
    "model.save_model_ms": ("ms", "setup_s", "eval_wide"),
    "metrics.evaluate_s_total": ("s", "snapshots_per_s", "all"),
    "metrics.evaluate_share": ("frac", "snapshots_per_s", "all"),
    "model.gatv2_share_of_step": ("frac", "snapshots_per_s", "larger on train_wide than train_small"),
    "model.adamw_share_of_step": ("frac", "snapshots_per_s", "larger on train_small than train_wide"),
    "bench.tracing_overhead_frac": ("frac", "none: cost of tracing itself", "all"),
    "bench.time_to_target_s": ("s", "time_to_target_s itself (ungated)", "train_small"),
    "bench.epochs_to_target": ("count", "time_to_target_s", "train_small"),
}
for _stage in stages.STAGES:
    for _n in stages.IN_PROCESS_N:
        LAYER_METRICS[f"stage.{_stage}.fwd_ms.n{_n}"] = (
            "ms", "snapshots_per_s", "isolated stage, independent of the workload")
        if _stage != "adamw_step":
            LAYER_METRICS[f"stage.{_stage}.bwd_ms.n{_n}"] = (
                "ms", "snapshots_per_s", "isolated stage, independent of the workload")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def workload_info(w: wl.Workload, seed: int) -> dict:
    return {"n_stocks": w.n_stocks, "n_days": w.n_days, "epochs": w.epochs,
            "target_val_acc": w.target, "datasets": w.draws, "mode": "train" if w.train else "eval",
            "data_seeds": [wl.data_seed(seed, d) for d in range(w.draws)], "why": w.why}


def traced_metrics(run: wl.RunResult, table: dict) -> dict[str, float]:
    out = tr.layer_metrics(run.tracer)
    out["bench.tracing_overhead_frac"] = run.tracing_overhead()
    out["bench.time_to_target_s"] = run.call_s() if run.workload.target is not None else 0.0
    out["bench.epochs_to_target"] = run.epochs() if run.workload.target is not None else 0.0
    for n in stages.IN_PROCESS_N:
        for stage, row in table["rows"][str(n)].items():
            out[f"stage.{stage}.fwd_ms.n{n}"] = row.get("fwd_ms") or 0.0
            if stage != "adamw_step":
                out[f"stage.{stage}.bwd_ms.n{n}"] = row.get("bwd_ms") or 0.0
    return {name: out[name] for name in LAYER_METRICS}


def describe_run(run: wl.RunResult) -> list[str]:
    """Human-readable lines for one run, naming snapshots_per_s by workload
    (train_snapshots_per_s or eval_snapshots_per_s) and adding
    time_to_target_s and failed_ops_frac."""
    w, e2e = run.workload, run.end_to_end()
    lines = [f"== {w.name} (N={w.n_stocks}, days={w.n_days}, seed={run.seed}, "
             f"{'traced' if run.traced else 'untraced'}, {run.measure_s:.1f} s measured)"]
    for name, value in e2e.items():
        alias = name
        if name == "snapshots_per_s":
            alias = "train_snapshots_per_s" if w.train else "eval_snapshots_per_s"
        lines.append(f"  {alias:<24}{value:>14.6g} {END_TO_END[name][0]}"
                     + (f"  (N={w.n_stocks})" if name == "snapshots_per_s" else ""))
    if w.target is not None:
        lines.append(f"  {'time_to_target_s':<24}{run.call_s():>14.6g} s  "
                     f"(val ACC >= {w.target}, median {run.epochs():g} epochs)")
    frac = len(run.ledger.failures) / max(run.ledger.attempted, 1)
    lines.append(f"  {'failed_ops_frac':<24}{frac:>14.6g} frac  "
                 f"({len(run.ledger.failures)} of {run.ledger.attempted})")
    if run.traced:
        untraced, traced = run.paired_call_s()
        lines.append(f"  paired calls: untraced {untraced:.4f} s, traced {traced:.4f} s, "
                     f"tracing overhead {run.tracing_overhead():+.2%}")
    for failure in run.ledger.failures:
        lines.append(f"  FAILED {failure}")
    return lines


def layer_separation(small: wl.RunResult, wide: wl.RunResult, ledger: wl.Ledger) -> dict:
    """The GAT share of step time must be larger on train_wide and the
    AdamW share larger on train_small."""
    s, w = tr.layer_metrics(small.tracer), tr.layer_metrics(wide.tracer)
    shares = {name: {"train_small": s[name], "train_wide": w[name]}
              for name in ("model.gatv2_share_of_step", "model.adamw_share_of_step")}
    ok_gat = ledger.check("layer_separation_gatv2",
                          w["model.gatv2_share_of_step"] > s["model.gatv2_share_of_step"],
                          json.dumps(shares))
    ok_adamw = ledger.check("layer_separation_adamw",
                            s["model.adamw_share_of_step"] > w["model.adamw_share_of_step"],
                            json.dumps(shares))
    return {"passed": ok_gat and ok_adamw, "shares": shares}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            results: Path) -> tuple[list[str], bool]:
    w = wl.WORKLOADS[name]
    run = wl.run(w, seed, seconds, trace, workdir)
    lines = describe_run(run)
    report = {"environment": environment(), "workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "info": workload_info(w, seed),
              "end_to_end": run.end_to_end(), "checks": run.ledger.checks,
              "failures": run.ledger.failures}
    if trace:
        table = stages.stage_table(seed)
        lines += stages.format_table(table)
        values = traced_metrics(run, table)
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in values.items()}
        report.update(per_layer=values, layer_map=LAYER_METRICS, stage_table=table,
                      tracing={"paired_call_s": dict(zip(("untraced", "traced"),
                                                         run.paired_call_s())),
                               "overhead_frac": run.tracing_overhead(),
                               "not_found": run.tracer.missing})
        run.tracer.write(results / f"spans_{name}_seed{seed}.jsonl.gz")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in run.end_to_end().items()}
    failed = len(run.ledger.failures)
    correct = failed == 0 and len(metrics) == (len(LAYER_METRICS) if trace else len(END_TO_END))
    report.update(attempted=run.ledger.attempted, failed=failed, correct=correct)
    (results / f"{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    lines.append(result_line(correct, run.ledger.attempted, failed, metrics))
    return lines, correct


def run_all(seed: int, seconds: float, workdir: Path, results: Path) -> tuple[list[str], bool]:
    """Every workload untraced then traced, in this process.  peak_rss_mb is
    the process peak so far, so only the first workload's is its own."""
    lines: list[str] = []
    metrics: dict = {}
    runs: dict = {}
    attempted = failed = 0
    summary = {"environment": environment(), "seed": seed, "seconds": seconds, "workloads": {}}
    for name, w in wl.WORKLOADS.items():
        plain = wl.run(w, seed, seconds, False, workdir)
        traced = wl.run(w, seed, seconds, True, workdir)
        runs[name] = traced
        lines += describe_run(plain) + describe_run(traced)
        e2e = plain.end_to_end()
        for k, v in e2e.items():
            metrics[f"{name}.{k}"] = {"value": v, "unit": END_TO_END[k][0]}
        summary["workloads"][name] = {
            "info": workload_info(w, seed), "end_to_end": e2e,
            "per_layer": tr.layer_metrics(traced.tracer),
            "tracing": {"untraced_run_call_s": plain.call_s(),
                        "traced_run_wall_s": traced.measure_s,
                        "paired_call_s": dict(zip(("untraced", "traced"),
                                                  traced.paired_call_s())),
                        "overhead_frac": traced.tracing_overhead()},
            "checks": {"untraced": plain.ledger.checks, "traced": traced.ledger.checks},
            "failures": plain.ledger.failures + traced.ledger.failures}
        for r in (plain, traced):
            attempted += r.ledger.attempted
            failed += len(r.ledger.failures)
        traced.tracer.write(results / f"spans_{name}_seed{seed}.jsonl.gz")

    ledger = wl.Ledger()
    separation = layer_separation(runs["train_small"], runs["train_wide"], ledger)
    attempted += ledger.attempted
    failed += len(ledger.failures)
    lines.append(f"== layer separation: {'PASS' if separation['passed'] else 'FAIL'} "
                 f"{json.dumps(separation['shares'])}")
    table = stages.stage_table(seed)
    lines += stages.format_table(table)
    summary.update(layer_separation=separation, stage_table=table, layer_map=LAYER_METRICS,
                   attempted=attempted, failed=failed)
    (results / f"all_seed{seed}.json").write_text(
        json.dumps(summary, indent=2, default=str) + "\n", encoding="utf-8")
    correct = failed == 0
    lines.append(result_line(correct, attempted, failed, metrics))
    return lines, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=HERE / "work"))
    try:
        if args.workload == "all":
            lines, correct = run_all(args.seed, args.seconds, workdir, results)
        else:
            lines, correct = run_one(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
