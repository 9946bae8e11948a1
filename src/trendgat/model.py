"""Full network assembly, training loop, prediction and persistence.

The forward pass projects each stock's lag window to the hidden width,
applies a learnable per-channel rectifier, runs the stacked dual-stream
blocks over the snapshot's graph and maps the parallel stream to one
logit pair per forecast step.  Each optimizer step uses the full stock
set of one time step (no node sampling); an epoch sweeps all training
time steps in chronological order.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, fields, asdict
from typing import ClassVar

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

MAX_PARAMETERS = 2 ** 24   # learnables of one model: 128 MiB per float64 vector
# layout entries of one model: ModelParams keeps a Value and two views per
# entry and init_model draws each, about 40 us and 700 B an entry
MAX_ENTRIES = 2 ** 12
MAX_SCORES = 2 ** 26       # dense attention scores of one forward: 512 MiB of float64

@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of one model.  Construction checks every structural
    rule (field types, finite floats, positive sizes and lr, wd >= 0, the
    heads rule, at most ``MAX_PARAMETERS`` learnables in at most
    ``MAX_ENTRIES`` layout entries), so a ModelConfig that exists is one
    that ``layout`` can lay out; the search ranges are ``cli.check_ranges``."""

    tau: int = 14
    k: float = 0.5
    s: float = 0.4
    f: int = 4
    phi: int = 1
    hidden: int = 16
    heads: int = 2
    layers: int = 2
    lr: float = 1e-3
    wd: float = 5e-4
    epochs: int = 800
    seed: int = 0
    parallel_attention: bool = True
    alpha: ClassVar[int] = md.CLASSES  # classes per forecast step, not a setting

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not _has_kind(value, field.type):
                raise ConfigError(f"{field.name}={value!r} is not {field.type}")
        if self.phi < 1 or self.epochs < 1 or self.hidden < 1:
            raise ConfigError("phi, epochs and hidden must be positive")
        if self.tau < 1:
            raise ConfigError(f"tau must be positive (at least one lag day), got {self.tau}")
        for key in ("layers", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must not be negative, got {getattr(self, key)}")
        if self.f < 1:
            raise ConfigError(f"f must be positive (at least one indicator), got {self.f}")
        for key in ("k", "s", "lr", "wd"):
            if not _finite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if not (self.lr > 0 and self.wd >= 0):
            raise ConfigError(f"lr must be positive and wd not negative, got {self.lr}, {self.wd}")
        if self.parallel_attention:  # the heads split the fused width 2 * hidden
            d_cat = 2 * self.hidden
            if not 1 <= self.heads <= d_cat:
                raise ConfigError(f"heads must be in [1, {d_cat}], got {self.heads}")
            if d_cat % self.heads != 0:
                raise ConfigError(f"heads {self.heads} must divide the fused width {d_cat}")
        # the blocks are alike, so one block's size and entries times
        # layers: a huge hidden or layers is answered at once
        outside = list(layout(self, layers=0))
        block = list(gb.block_layout(self.hidden, "block", self.parallel_attention))
        size = lambda entries: sum(rows * cols for _, rows, cols in entries)
        for name, bound, what, count in (
                ("MAX_PARAMETERS", MAX_PARAMETERS, "learnables", size),
                ("MAX_ENTRIES", MAX_ENTRIES, "layout entries", len)):
            total = count(outside) + self.layers * count(block)
            if total > bound:
                raise ConfigError(f"more than {name} = {bound} {what}: {total} ({self.layers} "
                                  f"blocks of {count(block)}, {count(outside)} outside them)")

    @property
    def input_width(self) -> int:
        return self.tau * self.f

    @property
    def output_width(self) -> int:
        return self.phi * self.alpha


def layout(config: ModelConfig, layers: int | None = None) -> Iterator[tuple[str, int, int]]:
    """(name, rows, cols) of every learnable, in ``ModelParams.flat`` order:
    the input projection and rectifier, each block's ``gb.block_layout``
    (``layers`` blocks, ``config.layers`` by default), then the output
    projection.  Lazy, like ``gb.block_layout``."""
    d = config.hidden
    yield "w_in", config.input_width, d
    yield gb.PRELU_IN, 1, d
    for i in range(config.layers if layers is None else layers):
        yield from gb.block_layout(d, f"block{i}", config.parallel_attention)
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
    flat = np.concatenate([gb.initial_value(config.seed, *entry, config.heads).ravel()
                           for entry in layout(config)])
    return ModelParams(config, flat)


def check_scores(config: ModelConfig, windows: int, n: int) -> None:
    """Refuse a forward over ``windows`` stacked graphs of ``n`` nodes
    whose parallel stream would hold more than ``MAX_SCORES`` dense
    attention scores (windows x heads x N x N): a ``ConfigError``."""
    scores = windows * config.heads * n * n
    if config.parallel_attention and config.layers and scores > MAX_SCORES:
        raise ConfigError(f"{windows} graph(s) of N = {n} nodes with {config.heads} heads hold "
                          f"{scores} attention scores, more than MAX_SCORES = {MAX_SCORES}")


def forward(params: ModelParams, snapshot: eg.GraphSnapshot) -> ad.Value:
    """Logits, one (phi*alpha)-wide row per stock.  ``check_scores`` runs
    before any product."""
    cfg = params.config
    if snapshot.features.shape[1] != cfg.input_width:
        raise ConfigError(
            f"forward: features width {snapshot.features.shape[1]} != tau*f = {cfg.input_width}")
    graph = snapshot.adjacency
    check_scores(cfg, graph.rows // graph.n, graph.n)
    x = ad.const(snapshot.features)
    h0 = ad.prelu(ad.matmul(x, params.w_in), params.prelu_in)
    state = gb.BlockState(h=h0, hp=h0)
    for block in params.blocks:
        if cfg.parallel_attention:
            state = gb.parallel_block(state, snapshot.adjacency, block)
        else:
            state = gb.plain_block(state, snapshot.adjacency, block)
    return ad.matmul(state.hp, params.w_out)


def loss(logits: ad.Value, labels: np.ndarray, alpha: int = md.CLASSES) -> ad.Value:
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


def build_datasets(panel: md.IndicatorPanel, config: ModelConfig,
                   ratios: tuple[int, int, int] = DEFAULT_RATIOS,
                   adjacency: eg.CsrGraph | None = None,
                   names: tuple[str, ...] = ("train", "validation", "test"),
                   ) -> dict[str, mt.Split]:
    """Split chronologically, normalize with train-only statistics, and
    build the splits in ``names`` (all three by default), each a
    ``metrics.Split``: one ``md.build_windows`` call windows and labels
    all its days, one ``eg.window_energies`` call takes their energies and
    one ``eg.boltzmann_graph`` call builds their energy graphs, or a fixed
    ``adjacency`` (e.g. the sector graph) serves every window.  A split
    stacks its evaluation chunks on first use and keeps them, so scoring
    it again, in any later epoch, seed or variant, reuses them."""
    splits = md.split_periods(panel, ratios, config.tau, config.phi)
    normalized = md.normalize(panel, splits)
    datasets = {}
    for name in names:
        ts = getattr(splits, name)
        features, labels = md.build_windows(normalized, ts, config.tau, config.phi)
        if adjacency is None:
            energies = eg.window_energies(normalized.values, ts, config.tau)
            graphs = tuple(eg.boltzmann_graph(energies, config.k, config.tau, config.s))
        else:
            graphs = (adjacency,) * len(ts)
        datasets[name] = mt.Split(ts, features, labels, graphs)
    return datasets


def train(train_split: mt.Split, val_split: mt.Split, config: ModelConfig,
          stop_at_val_acc: float | None = None) -> TrainResult:
    """Train with one optimizer step per time step (all stocks at once),
    sweeping the training split's windows chronologically each epoch;
    keeps the parameters of the best validation-accuracy epoch.  The
    validation split stacks its evaluation chunks once, in the first
    epoch.

    ``stop_at_val_acc`` ends the run early once the best validation
    accuracy reaches the target (used by budgeted acceptance runs).
    """
    if not train_split:
        raise ConfigError("train: need at least one training sample")
    params = init_model(config)
    opt = OptimizerState()
    history: list[dict] = []
    best = -1.0
    best_epoch = -1
    best_flat = params.flat.copy()
    scale = 1.0 / len(train_split)

    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for sample in train_split:
            params.grad.fill(0.0)
            with ad.Tape() as tape:
                out = forward(params, sample.snapshot)
                sample_loss = loss(out, sample.labels)
                tape.backward(sample_loss)
            total += sample_loss.data[0, 0]
            if not np.isfinite(total):
                raise TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch}", history=history)
            adamw_step(params, opt, config.lr, config.wd)
        train_loss = total * scale

        record: dict = {"epoch": epoch, "train_loss": train_loss}
        if val_split:
            val = mt.evaluate(params, val_split)
            record.update(val_acc=val["acc"], val_mcc=val["mcc"], val_f1=val["f1"])
            if val["acc"] > best:
                best = val["acc"]
                best_epoch = epoch
                best_flat[...] = params.flat
        history.append(record)
        if stop_at_val_acc is not None and best >= stop_at_val_acc:
            break

    if not val_split:
        best_flat, best_epoch, best = params.flat, config.epochs, float("nan")
    return TrainResult(params=ModelParams(params.config, best_flat.copy()), final_params=params,
                       history=history, best_epoch=best_epoch, best_val_acc=best)


def predict(params: ModelParams, snapshot: eg.GraphSnapshot) -> tuple[np.ndarray, np.ndarray]:
    """Class index per (stock, step) plus per-block probabilities.  Argmax
    ties resolve to class 0."""
    logits = forward(params, snapshot).data
    blocks = logits.reshape(logits.shape[0], params.config.phi, md.CLASSES)
    e = np.exp(blocks - blocks.max(axis=2, keepdims=True))
    probs = (e / e.sum(axis=2, keepdims=True)).reshape(logits.shape)
    classes = blocks.argmax(axis=2)  # first maximum, so ties go to class 0
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
    # headers written while alpha was a config field store it; 2 was its one value
    alpha = values.pop("alpha", ModelConfig.alpha)
    if type(alpha) is not int or alpha != ModelConfig.alpha:
        raise FormatError(f"config at offset {offset}: alpha={alpha!r}, but a model has "
                          f"{ModelConfig.alpha} classes per step")
    # headers written while gradient clipping was a setting store grad_clip
    clip = values.pop("grad_clip", None)
    if clip is not None and not (_has_kind(clip, "float") and _finite(clip) and clip > 0):
        raise FormatError(f"config at offset {offset}: grad_clip={clip!r} is not null or a "
                          f"finite positive number")
    unknown = set(values) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise FormatError(f"config at offset {offset} has unknown keys {sorted(unknown)}")
    try:
        return ModelConfig(**values)
    except ConfigError as exc:
        raise FormatError(f"config at offset {offset}: {exc}") from None


def _finite(value: int | float) -> bool:
    """Whether ``value`` is a finite float64: an int too large for one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _has_kind(value, kind: str) -> bool:
    # kind is a ModelConfig field annotation: "int", "float" or "bool";
    # bool is a subclass of int but never a number here
    if kind == "bool":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if kind == "int":
        return isinstance(value, int)
    return isinstance(value, (int, float))


def load_model(path) -> ModelParams:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read model file {path}: {exc.strerror}") from None
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
    except (ValueError, RecursionError) as exc:   # also an int past Python's digit limit
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

    # stops at the first entry that differs, before anything is allocated
    for i, (stored, entry) in enumerate(itertools.zip_longest(listing, layout(cfg))):
        expected = None if entry is None else list(entry)
        if stored != expected:
            raise FormatError(f"parameter listing in the header at offset {at} does not "
                              f"match the stored configuration at entry {i}: the header "
                              f"has {stored or 'nothing'}, the configuration lays out "
                              f"{expected or 'nothing'}")
    # astype copies the read-only buffer into a writable native-order vector
    flat = np.frombuffer(blob, dtype="<f8", offset=end).astype(np.float64)
    finite = np.isfinite(flat)
    if not finite.all():     # else every logit it reaches is NaN, and NaN argmaxes to class 0
        first = int(np.argmin(finite))
        at = first
        for name, rows, cols in listing:
            if at < rows * cols:
                break
            at -= rows * cols
        raise FormatError(f"payload at offset {end + 8 * first}: parameter {name}"
                          f"[{at // cols}, {at % cols}] is {float(flat[first])}, not finite")
    return ModelParams(cfg, flat)
