"""The benchmark's workloads: input generation, set-up, the timed call,
the correctness checks, and the end-to-end metrics of one run.

Inputs come from ``trendgat.synth.write_dataset`` with seeds derived from
the run seed; the measured program sees only the generated CSV files, the
manifest and (for ``eval_wide``) a checkpoint file.  Every workload is a
closed loop of one caller: the next library call starts when the previous
one returns.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from trendgat import market_data as md
from trendgat import metrics as mt
from trendgat import model as mdl
from trendgat import synth

from tracer import Tracer

# hidden=16, layers=2, heads=2, tau=14, k=0.5, s=0.4 as in the acceptance runs
BASE_CONFIG = mdl.ModelConfig(tau=14, k=0.5, s=0.4, hidden=16, heads=2, layers=2, seed=0)
SETUP_MIN_SAMPLES = 5      # set-ups per run, round-robin over the run's datasets,
SETUP_SECONDS = 3.0        # repeated until both minimums are met
CHECKPOINT_STOCKS = 20     # eval_wide's checkpoint is trained on a small draw


@dataclass(frozen=True)
class Workload:
    name: str
    n_stocks: int
    n_days: int
    epochs: int                   # epoch cap (with a target) or fixed epoch count;
                                  # eval: epochs the checkpoint is trained for
    train: bool = True            # False: inference on a saved checkpoint
    target: float | None = None   # stop_at_val_acc
    draws: int = 1                # datasets per run, each from its own derived seed
    why: str = ""


WORKLOADS = {
    "train_small": Workload(
        "train_small", n_stocks=20, n_days=600, epochs=20, target=0.80, draws=3,
        why="Acceptance-size set (N=20) trained to a validation target: per-op dispatch, "
            "the tape and the per-tensor AdamW loop dominate, gatv2_layer is a small share."),
    "train_wide": Workload(
        "train_wide", n_stocks=100, n_days=120, epochs=2, draws=3,
        why="N=100 for a fixed two epochs: the O(N^3) pair-selector products in gatv2_layer "
            "and their backward dominate and AdamW is negligible."),
    "eval_wide": Workload(
        "eval_wide", n_stocks=100, n_days=600, epochs=5, train=False,
        why="N=100 inference from a saved checkpoint: CSV ingestion and graph building in "
            "set-up, then the gatv2/attention forward with no tape, backward or AdamW."),
}


def data_seed(seed: int, draw: int) -> int:
    return seed * 1000 + draw


@dataclass
class Case:
    """One generated dataset (plus checkpoint) and everything measured on it."""

    manifest: str
    checkpoint: str | None
    config: mdl.ModelConfig
    datasets: dict | None = None
    params: mdl.ModelParams | None = None
    walls: list[float] = field(default_factory=list)         # untraced timed calls
    traced_walls: list[float] = field(default_factory=list)
    snapshots: int = 0                                        # per call
    epochs: int = 0
    val_acc: float = math.nan
    signature: object = None
    last: object = None                                       # last call's result


@dataclass
class Ledger:
    """Attempted and failed operations: timed calls, set-ups and checks."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    def run(self, what: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:   # a failed operation is counted, not fatal
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc()
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        passed, failed = self.checks.get(name, (0, 0))
        self.checks[name] = (passed + bool(ok), failed + (not ok))
        if not ok:
            self.failures.append(f"check {name} failed" + (f": {detail}" if detail else ""))
        return ok


# ---------------------------------------------------------------------------
# inputs (not timed)
# ---------------------------------------------------------------------------

def make_inputs(w: Workload, seed: int, workdir: Path) -> list[Case]:
    cases = []
    for draw in range(w.draws):
        root = workdir / w.name / f"draw{draw}"
        manifest = synth.write_dataset(root / "data", w.n_stocks, w.n_days, data_seed(seed, draw))
        config = replace(BASE_CONFIG, epochs=w.epochs)
        checkpoint = None if w.train else make_checkpoint(seed, draw, config, root)
        cases.append(Case(manifest=manifest, checkpoint=checkpoint, config=config))
    return cases


def make_checkpoint(seed: int, draw: int, config: mdl.ModelConfig, root: Path) -> str:
    """Train a model for ``config.epochs`` epochs on a small draw and save the
    best-validation parameters.  Parameter shapes do not depend on N, so it
    applies to the wide panel."""
    manifest = synth.write_dataset(root / "ckpt_data", CHECKPOINT_STOCKS, 600,
                                   data_seed(seed, 500 + draw))
    panel = md.select_indicators(md.load_panel(manifest), md.DEFAULT_INDICATORS)
    datasets = mdl.build_datasets(panel, config)
    result = mdl.train(datasets["train"], datasets["validation"], config)
    path = root / "model.bin"
    mdl.save_model(result.params, path)
    return str(path)


# ---------------------------------------------------------------------------
# set-up and the timed call
# ---------------------------------------------------------------------------

def setup(w: Workload, case: Case) -> float:
    """Ingest, build every snapshot, create or load the model; returns seconds."""
    cfg = case.config
    t0 = time.perf_counter()
    panel = md.load_panel(case.manifest, min_days=cfg.tau + cfg.phi)
    panel = md.select_indicators(panel, md.DEFAULT_INDICATORS)
    datasets = mdl.build_datasets(panel, cfg)
    params = mdl.init_model(cfg) if w.train else mdl.load_model(case.checkpoint)
    elapsed = time.perf_counter() - t0
    case.datasets, case.params = datasets, params
    return elapsed


def call(w: Workload, case: Case):
    """The measured library call; returns (seconds, result)."""
    ds = case.datasets
    t0 = time.perf_counter()
    if w.train:
        result = mdl.train(ds["train"], ds["validation"], case.config, stop_at_val_acc=w.target)
    else:
        result = (mt.evaluate(case.params, ds["validation"]), mt.evaluate(case.params, ds["test"]))
    return time.perf_counter() - t0, result


def record_call(w: Workload, case: Case, result, ledger: Ledger) -> None:
    """Per-call checks, and the call's work and quality."""
    ds = case.datasets
    if w.train:
        losses = [h["train_loss"] for h in result.history]
        ledger.check("losses_finite", all(math.isfinite(x) for x in losses), f"losses {losses}")
        if w.target is not None:
            ledger.check("target_reached", result.best_val_acc >= w.target,
                         f"best val ACC {result.best_val_acc:.4f} < {w.target} "
                         f"within {w.epochs} epochs")
        case.epochs = len(result.history)
        case.snapshots = case.epochs * len(ds["train"])
        case.val_acc = result.best_val_acc
        signature = [(h["epoch"], h["train_loss"], h.get("val_acc")) for h in result.history]
    else:
        for record, split in zip(result, ("validation", "test")):
            expected = w.n_stocks * len(ds[split]) * case.config.phi
            ledger.check("evaluate_count", record["n"] == expected,
                         f"{split}: scored {record['n']}, expected {expected}")
        case.snapshots = len(ds["validation"]) + len(ds["test"])
        case.val_acc = result[0]["acc"]
        signature = result
    if case.signature is None:
        case.signature = signature
    else:
        ledger.check("deterministic_repeat", signature == case.signature,
                     "a repeated call on the same inputs gave a different result")
    case.last = result


# ---------------------------------------------------------------------------
# checks made once per dataset, after the timed loop
# ---------------------------------------------------------------------------

def final_checks(w: Workload, case: Case, workdir: Path, ledger: Ledger) -> None:
    ds = case.datasets
    params = case.last.params if w.train else case.params
    if w.train:
        record = ledger.run("evaluate", lambda: mt.evaluate(params, ds["test"]))
        if record is not None:
            expected = w.n_stocks * len(ds["test"]) * case.config.phi
            ledger.check("evaluate_count", record["n"] == expected,
                         f"test: scored {record['n']}, expected {expected}")
    for sample in (ds["test"][0], ds["test"][-1]):
        out = ledger.run("predict", lambda: mdl.predict(params, sample.snapshot))
        if out is None:
            continue
        classes, probs = out
        blocks = probs.reshape(probs.shape[0], case.config.phi, case.config.alpha)
        ledger.check("predict_rows_sum_to_1",
                     bool(np.allclose(blocks.sum(axis=2), 1.0, rtol=0.0, atol=1e-12))
                     and bool((blocks.argmax(axis=2) == classes).all()),
                     "probability rows do not sum to 1 or disagree with the classes")
    same = ledger.run("round trip", lambda: round_trip(params, case, workdir))
    if same is not None:
        ledger.check("checkpoint_round_trip", same,
                     "load_model -> save_model did not reproduce the file byte for byte")


def round_trip(params: mdl.ModelParams, case: Case, workdir: Path) -> bool:
    """eval: the given checkpoint; train: the trained model saved first."""
    source = case.checkpoint
    if source is None:
        source = workdir / "trained.bin"
        mdl.save_model(params, source)
    copy = workdir / "round_trip.bin"
    mdl.save_model(mdl.load_model(source), copy)
    return Path(source).read_bytes() == copy.read_bytes()


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    workload: Workload
    seed: int
    traced: bool
    cases: list[Case]
    setup_s: list[float]
    ledger: Ledger
    tracer: Tracer | None
    measure_s: float

    def end_to_end(self) -> dict[str, float]:
        live = [c for c in self.cases if c.walls]
        if not live or not self.setup_s:
            return {}
        return {
            "setup_s": statistics.median(self.setup_s),
            # work over time across the whole measured window: the machine's
            # speed drifts over seconds, so a mean rate beats a median of few calls
            "snapshots_per_s": (sum(c.snapshots * len(c.walls) for c in live)
                                / sum(sum(c.walls) for c in live)),
            "val_acc": statistics.median(c.val_acc for c in live),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def call_s(self) -> float:
        """Median over datasets of the median wall time of one timed call."""
        live = [c for c in self.cases if c.walls]
        return statistics.median(statistics.median(c.walls) for c in live) if live else 0.0

    def epochs(self) -> float:
        live = [c for c in self.cases if c.walls]
        return statistics.median(c.epochs for c in live) if live else 0.0

    def paired_call_s(self) -> tuple[float, float]:
        """Total untraced and traced call time over the calls a traced run
        made in pairs on the same dataset."""
        pairs = [(u, t) for c in self.cases for u, t in zip(c.walls, c.traced_walls)]
        return sum(u for u, _ in pairs), sum(t for _, t in pairs)

    def tracing_overhead(self) -> float:
        untraced, traced = self.paired_call_s()
        return traced / untraced - 1.0 if untraced else 0.0


def run(w: Workload, seed: int, seconds: float, traced: bool, workdir: Path) -> RunResult:
    """Set up, then repeat the timed call over the run's datasets until
    ``seconds`` have passed and every dataset ran once.  Traced runs
    alternate an untraced and a traced call on the same dataset."""
    ledger = Ledger()
    tracer = Tracer() if traced else None
    cases = make_inputs(w, seed, workdir)
    setup_s: list[float] = []
    start = time.perf_counter()
    i = 0
    while (i < max(len(cases), SETUP_MIN_SAMPLES)
           or time.perf_counter() - start < SETUP_SECONDS):
        case = cases[i % len(cases)]
        i += 1
        if tracer is None:
            elapsed = ledger.run("setup", lambda: setup(w, case))
        else:
            with tracer, tracer.span("bench.setup"):
                elapsed = ledger.run("setup", lambda: setup(w, case))
        if elapsed is not None:
            setup_s.append(elapsed)
    ready = [c for c in cases if c.datasets is not None]

    # stop when the next call would end more than half a call past the
    # deadline, so the measured window is ``seconds`` on average
    start = time.perf_counter()
    deadline = start + seconds
    i, last = 0, 0.0
    while ready and (i < len(ready) or time.perf_counter() + last / 2 < deadline):
        case = ready[i % len(ready)]
        i += 1
        began = time.perf_counter()
        out = ledger.run("call", lambda: call(w, case))
        if out is None:
            ready.remove(case)
            continue
        case.walls.append(out[0])
        record_call(w, case, out[1], ledger)
        if tracer is not None:
            with tracer, tracer.span("bench.call"):
                out = ledger.run("traced call", lambda: call(w, case))
            if out is None:
                ready.remove(case)
                continue
            case.traced_walls.append(out[0])
            record_call(w, case, out[1], ledger)
        last = time.perf_counter() - began
    measure_s = time.perf_counter() - start

    for case in cases:
        if case.last is None:
            continue
        if tracer is None:
            final_checks(w, case, workdir, ledger)
        else:
            with tracer:
                final_checks(w, case, workdir, ledger)
    return RunResult(workload=w, seed=seed, traced=traced, cases=cases, setup_s=setup_s,
                     ledger=ledger, tracer=tracer, measure_s=measure_s)
