"""Full network assembly, training loop, prediction and persistence.

The forward pass projects each stock's lag window to the hidden width,
applies a learnable per-channel rectifier, runs the stacked dual-stream
blocks over the snapshot's graph and maps the parallel stream to one
logit pair per forecast step.  Each optimizer step uses the full stock
set of one time step (no node sampling); an epoch sweeps all training
time steps in chronological order.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, fields, asdict

import numpy as np

from . import autodiff as ad
from . import energy_graph as eg
from . import gnn_blocks as gb
from . import market_data as md
from . import metrics as mt
from .errors import (
    ConfigError,
    FormatError,
    NumericError,
    ShapeError,
    TrainingDivergedError,
)

MAGIC = b"EPGT"
FORMAT_VERSION = 2

# train:validation:test window ratios of a chronological split
DEFAULT_RATIOS = (457, 63, 261)

# documented hyperparameter search ranges; parse-time validation cites these
RANGES = {
    "tau": (7, 27),
    "k": (0.02, 2.0),
    "s": eg.THRESHOLD_RANGE,
    "heads": (2, 30),
    "layers": (2, 6),
    "lr": (1e-4, 2e-3),
    "wd": (1e-4, 1e-3),
}


@dataclass
class ModelConfig:
    tau: int = 14
    k: float = 0.5
    s: float = 0.4
    f: int = 4
    phi: int = 1
    alpha: int = 2
    hidden: int = 16
    heads: int = 2
    layers: int = 2
    lr: float = 1e-3
    wd: float = 5e-4
    epochs: int = 800
    seed: int = 0
    parallel_attention: bool = True
    grad_clip: float | None = None

    def validate(self, strict_ranges: bool = True) -> None:
        if self.alpha != 2:
            raise ConfigError(f"alpha must be 2, got {self.alpha}")
        if self.phi < 1 or self.epochs < 1 or self.hidden < 1:
            raise ConfigError("phi, epochs and hidden must be positive")
        if self.f < 1:
            raise ConfigError(f"f must be positive (at least one indicator), got {self.f}")
        for key in ("k", "s", "lr", "wd"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.grad_clip is not None and not (math.isfinite(self.grad_clip) and self.grad_clip > 0):
            raise ConfigError(f"grad_clip must be a finite positive number, got {self.grad_clip}")
        if not strict_ranges:
            return
        for key, (lo, hi) in RANGES.items():
            val = getattr(self, key)
            if not lo <= val <= hi:
                raise ConfigError(f"{key}={val} outside the permitted range [{lo}, {hi}]")

    @property
    def input_width(self) -> int:
        return self.tau * self.f

    @property
    def output_width(self) -> int:
        return self.phi * self.alpha


def layout(config: ModelConfig) -> Iterator[tuple[str, int, int]]:
    """(name, rows, cols) of every learnable, in ``ModelParams.flat`` order:
    the input projection and rectifier, each block's ``gb.block_layout``,
    then the output projection.  Lazy, like ``gb.block_layout``."""
    d = config.hidden
    yield "w_in", config.input_width, d
    yield gb.PRELU_IN, 1, d
    for i in range(config.layers):
        yield from gb.block_layout(d, config.heads, f"block{i}", config.parallel_attention)
    yield "w_out", d, config.output_width


class ModelParams:
    """Every learnable lives in one contiguous float64 vector ``flat`` (and
    its gradient in ``grad``); each ``Value`` is a 2-D view into them, laid
    out in ``layout(config)`` order.  Wraps ``flat`` without copying it."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        entries = list(layout(config))
        size = sum(rows * cols for _, rows, cols in entries)
        if flat.shape != (size,):
            raise ShapeError(f"ModelParams: flat has shape {flat.shape}, "
                             f"the layout needs ({size},)")
        self.config = config
        self.flat = flat
        self.grad = np.zeros_like(flat)
        self._named: list[tuple[str, ad.Value]] = []
        start = 0
        for name, rows, cols in entries:
            stop = start + rows * cols
            value = ad.Value(flat[start:stop].reshape(rows, cols))
            value._grad = self.grad[start:stop].reshape(rows, cols)
            self._named.append((name, value))
            start = stop
        values = (value for _, value in self._named)
        self.w_in: ad.Value = next(values)        # (tau*f) x d
        self.prelu_in: ad.Value = next(values)    # 1 x d learnable rectifier slopes
        self.blocks = [gb.assemble_block(values, config.heads, config.parallel_attention)
                       for _ in range(config.layers)]
        self.w_out: ad.Value = next(values)       # d x (phi*alpha)

    def named(self) -> list[tuple[str, ad.Value]]:
        return self._named

    def parameter_count(self) -> int:
        return self.flat.size


@dataclass
class Sample:
    """One training/evaluation unit: a graph snapshot plus its labels."""

    snapshot: eg.GraphSnapshot
    labels: np.ndarray


# AdamW moment decay rates and the guard added to the denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """AdamW first/second moment accumulators, laid out like ``ModelParams.flat``,
    and two vectors of that size that ``adamw_step`` computes in."""

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: tuple[np.ndarray, np.ndarray] | None = None


def init_model(config: ModelConfig) -> ModelParams:
    config.validate(strict_ranges=False)
    flat = np.concatenate([gb.initial_value(config.seed, *entry).ravel()
                           for entry in layout(config)])
    return ModelParams(copy.copy(config), flat)


def forward(params: ModelParams, snapshot: eg.GraphSnapshot) -> ad.Value:
    """Logits, one (phi*alpha)-wide row per stock."""
    cfg = params.config
    if snapshot.features.shape[1] != cfg.input_width:
        raise ConfigError(
            f"forward: features width {snapshot.features.shape[1]} != tau*f = {cfg.input_width}")
    x = ad.const(snapshot.features)
    h0 = ad.prelu(ad.matmul(x, params.w_in), params.prelu_in)
    state = gb.BlockState(h=h0, hp=h0)
    for block in params.blocks:
        if cfg.parallel_attention:
            state = gb.parallel_block(state, snapshot.adjacency, block)
        else:
            state = gb.plain_block(state, snapshot.adjacency, block)
    return ad.matmul(state.hp, params.w_out)


def loss(logits: ad.Value, labels: np.ndarray, alpha: int = 2) -> ad.Value:
    """Mean over stocks of the summed per-step cross-entropies, each
    alpha-wide logit block softmaxed independently: one tape op,
    ``autodiff.cross_entropy_with_logits``, which checks the labels."""
    return ad.cross_entropy_with_logits(logits, labels, alpha)


def adamw_step(params: ModelParams, opt: OptimizerState, lr: float, wd: float,
               named: list[tuple[str, ad.Value]] | None = None) -> None:
    """Bias-corrected Adam update with decoupled weight decay (decay acts on
    the pre-update parameter), applied elementwise to the whole flat vector.
    ``named`` is the parameter listing used to name a non-finite gradient."""
    g = params.grad
    if not np.isfinite(g).all():
        bad = next((name for name, value in (params.named() if named is None else named)
                    if not np.isfinite(value.grad).all()), "?")
        raise NumericError(f"non-finite gradient in parameter {bad}")
    opt.step += 1
    c1 = 1.0 - ADAM_BETA1 ** opt.step
    c2 = 1.0 - ADAM_BETA2 ** opt.step
    if opt.m is None:
        opt.m, opt.v = np.zeros_like(g), np.zeros_like(g)
        opt.scratch = (np.empty_like(g), np.empty_like(g))
    m, v, flat = opt.m, opt.v, params.flat
    a, b = opt.scratch
    # in place, in the order of the expressions
    #   m = beta1 * m + (1 - beta1) * g,  v = beta2 * v + (1 - beta2) * (g * g),
    #   flat -= lr * ((m / c1) / (sqrt(v / c2) + eps) + wd * flat)
    # so that every element rounds as they do
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    np.multiply(g, g, out=a)
    a *= 1.0 - ADAM_BETA2
    v += a
    np.divide(v, c2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, c1, out=b)
    b /= a
    b += np.multiply(flat, wd, out=a)
    b *= lr
    flat -= b


@dataclass
class TrainResult:
    params: ModelParams          # best-validation checkpoint
    final_params: ModelParams    # parameters after the last epoch
    history: list[dict]
    best_epoch: int
    best_val_acc: float


def samples_from_panel(panel: md.IndicatorPanel, ts, config: ModelConfig,
                       adjacency: eg.CsrGraph | None = None) -> list[Sample]:
    """Window, label and graph every time step in ts (adjacency depends only
    on the inputs, so it is built once and reused across epochs).  A fixed
    ``adjacency`` (e.g. the sector graph) replaces the per-window energy
    graph."""
    out = []
    for t in ts:
        ws = md.build_sample(panel, t, config.tau, config.phi, config.alpha)
        if adjacency is None:
            snap = eg.snapshot(t, ws.features, config.k, config.tau, config.s)
        else:
            snap = eg.GraphSnapshot(t, ws.features, adjacency)
        out.append(Sample(snapshot=snap, labels=ws.labels))
    return out


def build_datasets(panel: md.IndicatorPanel, config: ModelConfig,
                   ratios: tuple[int, int, int] = DEFAULT_RATIOS,
                   adjacency: eg.CsrGraph | None = None,
                   names: tuple[str, ...] = ("train", "validation", "test"),
                   ) -> dict[str, mt.Split]:
    """Split chronologically, normalize with train-only statistics, and
    materialize samples for the splits in ``names`` (all three by default),
    each a ``metrics.Split``: it stacks its evaluation chunks on first use
    and keeps them, so scoring a split again, in any later epoch, seed or
    variant, reuses them."""
    splits = md.split_periods(panel, ratios, config.tau, config.phi)
    normalized = md.normalize(panel, splits)
    return {name: mt.Split(samples_from_panel(normalized, getattr(splits, name), config,
                                              adjacency))
            for name in names}


def train(train_samples: list[Sample], val_samples: list[Sample], config: ModelConfig,
          stop_at_val_acc: float | None = None) -> TrainResult:
    """Train with one optimizer step per time step (all stocks at once),
    sweeping the training period chronologically each epoch; keeps the
    parameters of the best validation-accuracy epoch.  ``val_samples`` is
    taken as one ``metrics.Split`` for the run, so its evaluation chunks
    are stacked once.

    ``stop_at_val_acc`` ends the run early once the best validation
    accuracy reaches the target (used by budgeted acceptance runs).
    """
    if not train_samples:
        raise ConfigError("train: need at least one training sample")
    params = init_model(config)
    opt = OptimizerState()
    history: list[dict] = []
    best = -1.0
    best_epoch = -1
    best_flat = params.flat.copy()
    scale = 1.0 / len(train_samples)
    val_samples = mt.as_split(val_samples)

    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for sample in train_samples:
            params.grad.fill(0.0)
            with ad.Tape() as tape:
                out = forward(params, sample.snapshot)
                sample_loss = loss(out, sample.labels, config.alpha)
                tape.backward(sample_loss)
            total += sample_loss.data[0, 0]
            if not np.isfinite(total):
                raise TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch}", history=history)
            if config.grad_clip is not None:
                np.clip(params.grad, -config.grad_clip, config.grad_clip, out=params.grad)
            adamw_step(params, opt, config.lr, config.wd)
        train_loss = total * scale

        record: dict = {"epoch": epoch, "train_loss": train_loss}
        if val_samples:
            val = mt.evaluate(params, val_samples)
            record.update(val_acc=val["acc"], val_mcc=val["mcc"], val_f1=val["f1"])
            if val["acc"] > best:
                best = val["acc"]
                best_epoch = epoch
                best_flat[...] = params.flat
        history.append(record)
        if stop_at_val_acc is not None and best >= stop_at_val_acc:
            break

    if not val_samples:
        best_flat, best_epoch, best = params.flat, config.epochs, float("nan")
    return TrainResult(params=ModelParams(params.config, best_flat.copy()), final_params=params,
                       history=history, best_epoch=best_epoch, best_val_acc=best)


def predict(params: ModelParams, snapshot: eg.GraphSnapshot) -> tuple[np.ndarray, np.ndarray]:
    """Class index per (stock, step) plus per-block probabilities.  Argmax
    ties resolve to class 0."""
    cfg = params.config
    logits = forward(params, snapshot).data
    n = logits.shape[0]
    classes = np.empty((n, cfg.phi), dtype=np.int64)
    probs = np.empty_like(logits)
    for j in range(cfg.phi):
        block = logits[:, j * cfg.alpha:(j + 1) * cfg.alpha]
        z = block - block.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs[:, j * cfg.alpha:(j + 1) * cfg.alpha] = e / e.sum(axis=1, keepdims=True)
        classes[:, j] = block.argmax(axis=1)  # first maximum, so ties go to class 0
    return classes, probs


# ---------------------------------------------------------------------------
# persistence, format 2: a 16-byte prefix (magic, version, header length and
# the CRC32 of every byte after the prefix), a UTF-8 JSON header
# {"config": ..., "params": [[name, rows, cols], ...]} in layout() order, then
# ModelParams.flat as little-endian float64
# ---------------------------------------------------------------------------

_PREFIX = struct.Struct("<4sIII")


def save_model(params: ModelParams, path) -> None:
    header = json.dumps({
        "config": asdict(params.config),
        "params": list(layout(params.config)),
    }, sort_keys=True).encode("utf-8")
    body = header + params.flat.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header), zlib.crc32(body)))
        fh.write(body)


def _read_config(values, offset: int) -> ModelConfig:
    if not isinstance(values, dict):
        raise FormatError(f"config at offset {offset} is not a JSON object")
    kinds = {f.name: f.type for f in fields(ModelConfig)}
    unknown = set(values) - set(kinds)
    if unknown:
        raise FormatError(f"config at offset {offset} has unknown keys {sorted(unknown)}")
    for key, value in values.items():
        # json reads NaN and +-Infinity, which no config field may hold
        if isinstance(value, float) and not math.isfinite(value):
            raise FormatError(f"config at offset {offset}: {key}={value!r} is not finite")
        if not _has_kind(value, kinds[key]):
            raise FormatError(f"config at offset {offset}: {key}={value!r} is not {kinds[key]}")
    return ModelConfig(**values)


def _has_kind(value, kind: str) -> bool:
    # kind is a ModelConfig field annotation: "int", "float", "bool" or
    # "float | None"; bool is a subclass of int but never a number here
    if kind == "bool":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if kind == "int":
        return isinstance(value, int)
    return isinstance(value, (int, float)) or (kind == "float | None" and value is None)


def load_model(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _PREFIX.size:
        raise FormatError(f"truncated model file: {len(blob)} bytes from offset 0, "
                          f"shorter than the {_PREFIX.size}-byte prefix")
    magic, version, header_len, crc = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version} at offset 4 "
                          f"(this build reads version {FORMAT_VERSION} only)")
    if zlib.crc32(memoryview(blob)[_PREFIX.size:]) != crc:
        raise FormatError(f"CRC32 of offsets {_PREFIX.size}..{len(blob)} does not match the "
                          f"stored {crc:#010x} at offset 12: the file is corrupt or truncated")

    at, end = _PREFIX.size, _PREFIX.size + header_len
    if end > len(blob):
        raise FormatError(f"header length {header_len} at offset 8 exceeds the "
                          f"{len(blob) - at} bytes after the prefix")
    try:
        header = json.loads(blob[at:end].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"header at offset {at} is not UTF-8: {exc.reason}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"header at offset {at} is not JSON: {exc}") from None
    if not isinstance(header, dict) or set(header) != {"config", "params"}:
        raise FormatError(f"header at offset {at} is not a JSON object with exactly "
                          f"the keys config and params")
    cfg = _read_config(header["config"], at)
    listing = header["params"]
    if not isinstance(listing, list) or not all(
            isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
            and all(type(size) is int and size >= 0 for size in entry[1:]) for entry in listing):
        raise FormatError(f"header at offset {at}: params is not a list of [name, rows, cols]")
    declared = 8 * sum(rows * cols for _, rows, cols in listing)
    if len(blob) - end != declared:
        raise FormatError(f"payload at offset {end} holds {len(blob) - end} bytes, but the "
                          f"header declares {declared} bytes")

    # the layout is lazy, so a huge stored layers or heads stops at the first
    # entry that differs from the finite listing, before anything is allocated
    try:
        cfg.validate(strict_ranges=False)
        for i, (stored, entry) in enumerate(itertools.zip_longest(listing, layout(cfg))):
            expected = None if entry is None else list(entry)
            if stored != expected:
                raise FormatError(f"parameter listing in the header at offset {at} does not "
                                  f"match the stored configuration at entry {i}: the header "
                                  f"has {stored or 'nothing'}, the configuration lays out "
                                  f"{expected or 'nothing'}")
    except ConfigError as exc:
        raise FormatError(f"stored configuration is invalid: {exc}") from None
    # astype copies the read-only buffer into a writable native-order vector
    return ModelParams(cfg, np.frombuffer(blob, dtype="<f8", offset=end).astype(np.float64))
