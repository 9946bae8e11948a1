"""Isolated forward/backward timing of the network's stages at several N.

Each stage runs on seeded random inputs of the shapes it sees inside the
model (hidden=16, heads=2, tau=14, four indicator channels); the graph
comes from ``energy_graph.snapshot`` on random windows, so its sparsity is
that of a real snapshot.  The forward pass runs under a fresh ``Tape``,
then the backward pass sweeps that tape from ``sum(out * C)`` with a fixed
seeded cotangent ``C``.  ``adamw_step`` has no backward; its row times
one update of every parameter from seeded gradients.

The largest N runs in a child process whose address space is capped with
``setrlimit`` (the child sets the limit on itself before importing numpy),
so a stage that would allocate more than the cap is recorded as skipped
instead of taking the machine's memory.  Run this file directly with
``--n N --cap-mib M`` to get one N's rows as JSON.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

STAGES = ["input_projection_prelu", "gatv2_layer", "multi_head_attention", "loss", "adamw_step"]
IN_PROCESS_N = (20, 100)
CAPPED_N = 500
CAP_MIB = 1024
CHILD_TIMEOUT_S = 120
MIN_REPS, MAX_REPS, CELL_SECONDS = 3, 200, 0.15


def _timed(fn) -> list[float]:
    """Repeat ``fn`` (which returns its own elapsed seconds) for about
    CELL_SECONDS, at least MIN_REPS times."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or (time.perf_counter() - start < CELL_SECONDS
                                    and len(times) < MAX_REPS):
        times.append(fn())
    return times


def measure_n(n: int, seed: int = 0) -> dict:
    """Rows ``{stage: {"fwd_ms", "bwd_ms", "reps"} or {"skipped": why}}``."""
    import numpy as np

    from trendgat import autodiff as ad
    from trendgat import energy_graph as eg
    from trendgat import gnn_blocks as gb
    from trendgat import model as mdl

    cfg = mdl.ModelConfig(tau=14, k=0.5, s=0.4, hidden=16, heads=2, layers=2, seed=seed)
    params = mdl.init_model(cfg)
    named = params.named()
    rng = np.random.default_rng(seed)
    d = cfg.hidden
    features = rng.standard_normal((n, cfg.input_width))
    adjacency = eg.snapshot(0, features, cfg.k, cfg.tau, cfg.s).adjacency
    block = params.blocks[0]
    h = ad.Value(rng.standard_normal((n, d)))
    fused = ad.Value(rng.standard_normal((n, 2 * d)))
    logits = ad.Value(rng.standard_normal((n, cfg.output_width)))
    labels = np.zeros((n, cfg.output_width), dtype=np.int64)
    labels[np.arange(n), rng.integers(0, 2, n)] = 1

    forwards = {
        "input_projection_prelu": lambda: ad.prelu(
            ad.matmul(ad.const(features), params.w_in), params.prelu_in),
        "gatv2_layer": lambda: gb.gatv2_layer(h, adjacency, block.gat),
        "multi_head_attention": lambda: gb.multi_head_attention(fused, block),
        "loss": lambda: mdl.loss(logits, labels, cfg.alpha),
    }
    rows: dict[str, dict] = {}
    for stage, forward in forwards.items():
        fwd, bwd = [], []
        try:
            shape = forward().data.shape   # warm caches and learn the output shape
        except MemoryError:
            rows[stage] = {"skipped": "MemoryError"}
            continue
        cotangent = ad.const(np.random.default_rng([seed, n]).standard_normal(shape))

        def one_rep() -> float:
            for _, value in named:
                value.zero_grad()
            for value in (h, fused, logits):
                value.zero_grad()
            with ad.Tape() as tape:
                t0 = time.perf_counter()
                out = forward()
                t1 = time.perf_counter()
                scalar = ad.reduce_sum(ad.mul(out, cotangent))
                t2 = time.perf_counter()
                tape.backward(scalar)
                t3 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
            return t3 - t0

        try:
            _timed(one_rep)
        except MemoryError:
            rows[stage] = {"skipped": "MemoryError"}
            continue
        rows[stage] = {"fwd_ms": statistics.median(fwd) * 1e3,
                       "bwd_ms": statistics.median(bwd) * 1e3, "reps": len(fwd)}

    grads = np.random.default_rng([seed, n, 1])
    for _, value in named:
        value.grad[...] = grads.standard_normal(value.data.shape)
    opt = mdl.OptimizerState()

    def one_update() -> float:
        t0 = time.perf_counter()
        mdl.adamw_step(params, opt, cfg.lr, cfg.wd, named=named)
        return time.perf_counter() - t0

    updates = _timed(one_update)
    rows["adamw_step"] = {"fwd_ms": statistics.median(updates) * 1e3, "bwd_ms": None,
                          "reps": len(updates)}
    return rows


def measure_capped(n: int, cap_mib: int) -> dict:
    """``measure_n`` in a child process limited to ``cap_mib`` MiB of
    address space; a stage that hits the cap reads ``skipped: over <cap>``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--n", str(n), "--cap-mib", str(cap_mib)]
    over = f"skipped: over {cap_mib} MiB address space"
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:   # run() kills the child and waits for it
        return {stage: {"skipped": f"child timed out after {CHILD_TIMEOUT_S} s"} for stage in STAGES}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        why = over if "MemoryError" in done.stderr else f"child exited {done.returncode}: {tail[0]}"
        return {stage: {"skipped": why} for stage in STAGES}
    rows = json.loads(lines[-1])
    for row in rows.values():
        if row.get("skipped") == "MemoryError":
            row["skipped"] = over
    return rows


def stage_table(seed: int = 0) -> dict:
    """``{"cap_mib", "rows": {N: {stage: row}}}`` for every N."""
    rows = {str(n): measure_n(n, seed) for n in IN_PROCESS_N}
    rows[str(CAPPED_N)] = measure_capped(CAPPED_N, CAP_MIB)
    return {"cap_mib": CAP_MIB, "capped_n": CAPPED_N, "rows": rows}


def format_table(table: dict) -> list[str]:
    lines = [f"{'stage':<24}{'N':>6}{'fwd ms':>12}{'bwd ms':>12}"]
    for n, rows in table["rows"].items():
        for stage in STAGES:
            row = rows.get(stage, {"skipped": "not measured"})
            if "skipped" in row:
                lines.append(f"{stage:<24}{n:>6}  {row['skipped']}")
                continue
            bwd = "-" if row["bwd_ms"] is None else f"{row['bwd_ms']:.4f}"
            lines.append(f"{stage:<24}{n:>6}{row['fwd_ms']:>12.4f}{bwd:>12}")
    return lines


def _child(argv: list[str]) -> int:
    import argparse
    import resource

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--cap-mib", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    cap = args.cap_mib * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps(measure_n(args.n, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
