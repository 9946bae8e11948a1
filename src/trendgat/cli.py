"""Experiment command line: training runs, ablations, hyperparameter
sweeps, graph export, synthetic data generation and report aggregation.

Configuration is a flat key=value file with section prefixes (see KEYS);
command-line flags override file values, file values override defaults,
and unknown keys are errors.  Every run writes the fully resolved spec
next to its outputs so it can be reproduced exactly.

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path

from . import energy_graph as eg
from . import market_data as md
from . import metrics as mt
from . import model as mdl
from . import synth
from .errors import ConfigError, DataError, NumericError

# every configuration key: (value kind, flag help), in --help order.  A
# key's flag is --<name after the dot> with "_" written "-" (out.dir is
# --out), and a graph./model./train. key named after a ModelConfig field
# sets that field.
KEYS = {
    "data.manifest": ("path", None),
    "out.dir": ("path", None),
    "data.indicators": ("namelist", "comma-separated channel names"),
    "data.ratios": ("ratios", "train:validation:test, e.g. 457:63:261"),
    "model.tau": ("int", None),
    "graph.k": ("float", None),
    "graph.s": ("float", None),
    "model.hidden": ("int", None),
    "model.heads": ("int", None),
    "model.layers": ("int", None),
    "model.phi": ("int", None),
    "train.lr": ("float", None),
    "train.wd": ("float", None),
    "train.epochs": ("int", None),
    "train.seeds": ("intlist", "comma-separated seed list"),
}


def _dest(key: str) -> str:
    """The argparse dest of a key's flag: its name after the dot."""
    return "out" if key == "out.dir" else key.split(".", 1)[1]


# ModelConfig field -> the configuration key that sets it
FIELD_KEYS = {
    _dest(key): key for key in KEYS
    if key.startswith(("graph.", "model.", "train."))
    and _dest(key) in {field.name for field in dataclasses.fields(mdl.ModelConfig)}
}
SWEEP_AXES = ("tau", "k", "s", "heads", "layers")  # ModelConfig fields

# documented hyperparameter search ranges; --no-range-check lifts them
RANGES = {
    "tau": (7, 27),
    "k": (0.02, 2.0),
    "s": eg.THRESHOLD_RANGE,
    "heads": (2, 30),
    "layers": (2, 6),
    "lr": (1e-4, 2e-3),
    "wd": (1e-4, 1e-3),
}


@dataclasses.dataclass
class ExperimentSpec:
    mode: str
    manifest: str | None
    out_dir: str
    config: mdl.ModelConfig
    seeds: list[int]
    indicators: list[str]
    ratios: tuple[int, int, int]
    range_check: bool = True

    def resolved(self) -> dict:
        return dataclasses.asdict(self)


def _parse_value(key: str, raw: str):
    kind = KEYS[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "namelist":
            return [p.strip() for p in raw.split(",") if p.strip()]
        if kind == "intlist":
            return [int(p) for p in raw.split(",") if p.strip()]
        if kind == "ratios":
            parts = [int(p) for p in raw.replace(":", ",").split(",")]
            if len(parts) != 3:
                raise ValueError("need three integers")
            return tuple(parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def read_config_file(path) -> dict:
    """key=value lines; '#' comments and blank lines ignored."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 at byte {exc.start}") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, value)
    return values


def parse_spec(config_path, overrides: dict, mode: str, range_check: bool = True) -> ExperimentSpec:
    """Resolve defaults < config file < flag overrides into a full spec."""
    values: dict = {}
    if config_path is not None:
        values.update(read_config_file(config_path))
    for key, raw in overrides.items():
        if key not in KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if raw is not None:
            values[key] = _parse_value(key, raw) if isinstance(raw, str) else raw

    indicators = values.get("data.indicators", list(md.DEFAULT_INDICATORS))
    config = mdl.ModelConfig(f=len(indicators), **{name: values[key] for name, key
                                                   in FIELD_KEYS.items() if key in values})
    if range_check:
        check_ranges(config)

    seeds = values.get("train.seeds", [config.seed])
    if not seeds:
        raise ConfigError("seed list must not be empty")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seed list repeats a seed: {seeds}")
    if min(seeds) < 0:
        raise ConfigError(f"seed must not be negative, got {min(seeds)}")
    return ExperimentSpec(
        mode=mode,
        manifest=values.get("data.manifest"),
        out_dir=values.get("out.dir", "runs/latest"),
        config=config,
        seeds=seeds,
        indicators=indicators,
        ratios=values.get("data.ratios", mdl.DEFAULT_RATIOS),
        range_check=range_check,
    )


def check_ranges(config: mdl.ModelConfig) -> None:
    for key, (lo, hi) in RANGES.items():
        val = getattr(config, key)
        if not lo <= val <= hi:
            raise ConfigError(f"{key}={val} outside the permitted range [{lo}, {hi}]")


def output_dir(out) -> Path:
    """The output directory ``out``, checked before any data is read or
    generated: a path that exists as something other than a directory, or
    under such a path, is a ConfigError."""
    out_dir = Path(out)
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {out_dir}: {path} exists and is not a directory")
            break
    return out_dir


def write_resolved_spec(spec: ExperimentSpec, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "spec_resolved.json").write_text(
        json.dumps(spec.resolved(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_panel(spec: ExperimentSpec, configs) -> md.IndicatorPanel:
    """The spec's manifest, aligned and restricted to its indicators, with
    enough shared days for the longest window and horizon of any config."""
    if spec.manifest is None:
        raise ConfigError(f"mode {spec.mode!r} requires a dataset manifest (data.manifest / --manifest)")
    panel = md.load_panel(spec.manifest, min_days=max(c.tau + c.phi for c in configs))
    return md.select_indicators(panel, spec.indicators)


def _write_history(history: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def train_one(config: mdl.ModelConfig, seed: int, datasets, out_dir: Path,
              label: str = "") -> dict:
    """One seeded training run; writes history, metrics and checkpoint."""
    config = dataclasses.replace(config, seed=seed)
    result = mdl.train(datasets["train"], datasets["validation"], config)
    test = mt.evaluate(result.params, datasets["test"]) if datasets["test"] else None
    suffix = f"{label}_seed{seed}" if label else f"seed{seed}"
    _write_history(result.history, out_dir / f"history_{suffix}.jsonl")
    mdl.save_model(result.params, out_dir / f"model_{suffix}.bin")
    record = {
        "seed": seed,
        "label": label or "train",
        "best_epoch": result.best_epoch,
        "val_acc": result.best_val_acc,
        "parameters": result.params.parameter_count(),
        "test": test,
    }
    (out_dir / f"metrics_{suffix}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return record


def run_variants(spec: ExperimentSpec, variants) -> list[dict]:
    """Train each (label, ModelConfig, graph source) for every seed of the
    spec; returns the per-seed records in that order.  A graph source is "energy"
    (one energy graph per window) or "sector" (the fixed same-sector graph).

    An output directory that already holds per-seed metrics is refused, and
    every config and its largest forward, graph source and data split is
    checked before anything is written.  The panel is loaded once, and
    consecutive variants that share tau, phi, k, s and graph source share
    one set of datasets; at most one set is alive at a time."""
    out_dir = output_dir(spec.out_dir)
    # report reads every metrics file under the directory, so one from an
    # earlier run would be pooled with this run's
    stale = min(out_dir.rglob("metrics_*seed*.json"), default=None)
    if stale is not None:
        raise ConfigError(f"{out_dir} already holds results ({stale}); choose a new --out")
    configs = [config for _, config, _ in variants]
    if spec.range_check:
        for config in configs:
            check_ranges(config)
    panel = _load_panel(spec, configs)
    for config in configs:       # an evaluation chunk is the largest forward
        mdl.check_scores(config, mt.chunk_windows(panel.n_stocks), panel.n_stocks)
        md.split_periods(panel, spec.ratios, config.tau, config.phi)
    graphs = {source: None if source == "energy" else eg.sector_adjacency(panel.sectors, panel.tickers)
              for _, _, source in variants}
    write_resolved_spec(spec, out_dir)
    records: list[dict] = []
    built, datasets = None, None
    for label, config, source in variants:
        key = (config.tau, config.phi, config.k, config.s, source)
        if key != built:
            datasets = None           # free the previous set before building the next
            datasets = mdl.build_datasets(panel, config, spec.ratios, graphs[source])
            built = key
        records += [train_one(config, seed, datasets, out_dir, label) for seed in spec.seeds]
    return records


SUMMARY_METRICS = ("val_acc", "acc", "mcc", "f1")  # validation ACC, then the test metrics


def _summary_row(record: dict) -> tuple:
    """(label, [val_acc, test acc, mcc, f1]) of a per-seed record, with None
    for a missing value."""
    test = record.get("test")
    test = test if isinstance(test, dict) else {}
    return (record.get("label", "train"),
            [record.get("val_acc")] + [test.get(name) for name in SUMMARY_METRICS[1:]])


def write_report(records, out_dir: Path) -> int:
    """Group per-seed records by label; write each label's n and the mean and
    population std of every SUMMARY_METRICS value to out_dir/report.json and
    print them as one table.  fmean and pstdev sum exactly, so the numbers do
    not depend on the order of the records."""
    by_label: dict[str, list[list]] = {}
    for label, values in map(_summary_row, records):
        by_label.setdefault(label, []).append(values)
    summary = {
        label: {"n": len(rows), **{
            name: {"mean": statistics.fmean(column), "std": statistics.pstdev(column)}
            for name, column in zip(SUMMARY_METRICS, zip(*rows))}}
        for label, rows in sorted(by_label.items())
    }
    (out_dir / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{'label':>14} {'n':>3} {'val acc':>16} {'test acc':>16} {'test mcc':>16} {'test f1':>16}")
    for label, stats in summary.items():
        cells = " ".join(f"{stats[m]['mean']:.4f} +- {stats[m]['std']:.4f}" for m in SUMMARY_METRICS)
        print(f"{label:>14} {stats['n']:>3} {cells}")
    return 0


def cmd_train(spec: ExperimentSpec) -> int:
    return write_report(run_variants(spec, [("", spec.config, "energy")]), Path(spec.out_dir))


def cmd_eval(spec: ExperimentSpec, model_path: str) -> int:
    out_dir = output_dir(spec.out_dir)
    params = mdl.load_model(model_path)
    eval_spec = dataclasses.replace(spec, config=params.config)
    write_resolved_spec(eval_spec, out_dir)
    panel = _load_panel(eval_spec, [params.config])
    test = mdl.build_datasets(panel, params.config, spec.ratios, names=("test",))["test"]
    record = mt.evaluate(params, test)
    (out_dir / "metrics_eval.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    return 0


ABLATION_VARIANTS = [
    # (label, graph source, parallel attention); the four module toggles
    ("energy_attn", "energy", True),
    ("energy_plain", "energy", False),
    ("sector_plain", "sector", False),
    ("sector_attn", "sector", True),
]


def cmd_ablate(spec: ExperimentSpec) -> int:
    return write_report(run_variants(spec, [
        (label, dataclasses.replace(spec.config, parallel_attention=parallel), source)
        for label, source, parallel in ABLATION_VARIANTS]), Path(spec.out_dir))


def cmd_sweep(spec: ExperimentSpec, axis: str, grid_raw: str) -> int:
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    grid = [
        _parse_value(FIELD_KEYS[axis], part.strip())
        for part in grid_raw.split(",") if part.strip()
    ]
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    if len(set(grid)) < len(grid):
        raise ConfigError(f"sweep grid repeats a value: {grid}")
    return write_report(run_variants(spec, [
        (f"{axis}{value}", dataclasses.replace(spec.config, **{axis: value}), "energy")
        for value in grid]), Path(spec.out_dir))


def cmd_graphgen(spec: ExperimentSpec, t: int | None) -> int:
    """Build every window's graph, print each split's ``eg.graph_statistics``
    and export the graph of day t (default: the last training day)."""
    out_dir = output_dir(spec.out_dir)
    write_resolved_spec(spec, out_dir)
    panel = _load_panel(spec, [spec.config])
    cfg = spec.config
    usable = md.usable_range(panel.n_days, cfg.tau, cfg.phi)
    if t is not None and t not in usable:
        raise ConfigError(f"--t {t} outside the usable range [{usable.start}, {usable.stop - 1}] "
                          f"for tau={cfg.tau}, phi={cfg.phi} and {panel.n_days} days")
    datasets = mdl.build_datasets(panel, cfg, spec.ratios)
    for name, split in datasets.items():
        stats = eg.graph_statistics(split.graphs)
        print(f"{name}: {stats['windows']} windows, {stats['offdiag_edges_mean']:.4f} "
              f"off-diagonal edges per window, {stats['neighbour_window_share']:.4f} of "
              f"windows with a neighbour row, isolated-node fraction {stats['isolated_frac']:.4f}")
    if t is None:
        t = datasets["train"].ts[-1]
    # the splits partition the usable range, so exactly one of them holds t
    split = next(split for split in datasets.values() if t in split.ts)
    graph = split.graphs[split.ts.index(t)]
    edges = eg.export_edges(graph, panel.tickers, out_dir / f"edges_t{t}.tsv")
    eg.export_dense(graph, panel.tickers, out_dir / f"adjacency_t{t}.csv")
    print(f"t={t} ({panel.dates[t]}): {edges} edges -> {out_dir / f'edges_t{t}.tsv'}")
    return 0


def cmd_synth(out: str, n: int, days: int, seed: int) -> int:
    out_dir = output_dir(out)
    rule_spec = synth.RuleSpec()
    manifest = synth.write_dataset(out_dir, n, days, seed, rule_spec)
    resolved = {"mode": "synth", "out": str(out), "n": n, "days": days,
                "f": len(md.DEFAULT_INDICATORS), "seed": seed,
                "rule": dataclasses.asdict(rule_spec)}
    (out_dir / "spec_resolved.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(manifest)
    return 0


def cmd_report(run_dir: str) -> int:
    """The summary of every metrics_*seed*.json with a test block under
    run_dir, read in sorted-path order."""
    run_dir = Path(run_dir)
    records = []
    for path in sorted(run_dir.rglob("metrics_*seed*.json")):
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: metrics file is not JSON: {exc}") from None
        if not isinstance(blob, dict):
            raise DataError(f"{path}: metrics file is not a JSON object")
        if not blob.get("test"):
            continue
        label, values = _summary_row(blob)
        if not isinstance(label, str):
            raise DataError(f"{path}: label {label!r} is not a string")
        # every metric lies in [-1, 1]; this also rejects NaN, inf and bools
        if not all(type(v) in (int, float) and -1 <= v <= 1 for v in values):
            raise DataError(f"{path}: val_acc or the test acc, mcc or f1 is missing "
                            f"or not a number in [-1, 1]")
        records.append(blob)
    if not records:
        raise DataError(f"no per-seed metrics files under {run_dir}")
    return write_report(records, run_dir)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1
        raise ConfigError(message)


def _add_common_flags(sub):
    sub.add_argument("--config", default=None, help="key=value configuration file")
    for key, (_, help_text) in KEYS.items():
        sub.add_argument("--" + _dest(key).replace("_", "-"), default=None, help=help_text)
    sub.add_argument("--no-range-check", action="store_true",
                     help="permit hyperparameters outside the documented ranges")


def build_parser() -> _Parser:
    parser = _Parser(prog="trendgat", description=__doc__)
    subs = parser.add_subparsers(dest="mode", required=True)
    for mode in ("train", "ablate", "graphgen"):
        _add_common_flags(subs.add_parser(mode))
    evalp = subs.add_parser("eval")
    _add_common_flags(evalp)
    evalp.add_argument("--model", required=True, help="model checkpoint to evaluate")
    sweep = subs.add_parser("sweep")
    _add_common_flags(sweep)
    sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    sweep.add_argument("--grid", required=True, help="comma-separated grid values")
    subs.choices["graphgen"].add_argument("--t", type=int, default=None,
                                          help="time index (default: last training day)")
    synthp = subs.add_parser("synth")
    synthp.add_argument("--out", required=True)
    synthp.add_argument("--n", type=int, default=20)
    synthp.add_argument("--days", type=int, default=600)
    synthp.add_argument("--seed", type=int, default=0)
    reportp = subs.add_parser("report")
    reportp.add_argument("--dir", required=True, help="run directory to aggregate")
    return parser


def spec_from_args(args) -> ExperimentSpec:
    overrides = {key: getattr(args, _dest(key)) for key in KEYS}
    return parse_spec(args.config, overrides, args.mode, range_check=not args.no_range_check)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.mode == "synth":
            return cmd_synth(args.out, args.n, args.days, args.seed)
        if args.mode == "report":
            return cmd_report(args.dir)
        spec = spec_from_args(args)
        if args.mode == "train":
            return cmd_train(spec)
        if args.mode == "eval":
            return cmd_eval(spec, args.model)
        if args.mode == "ablate":
            return cmd_ablate(spec)
        if args.mode == "sweep":
            return cmd_sweep(spec, args.axis, args.grid)
        if args.mode == "graphgen":
            return cmd_graphgen(spec, args.t)
        raise ConfigError(f"unknown mode {args.mode!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
