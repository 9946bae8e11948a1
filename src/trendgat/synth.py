"""Planted-rule synthetic dataset generator for desk-scale experiments.

Stocks come in co-moving ladder groups (pairs by default): open/high/low
ride a shared per-group mean-reverting factor plus small idiosyncratic
noise, and group step sizes follow a geometric volatility ladder so
close-window energies cluster by group.  The adjusted close is an
additive walk whose step direction is a deterministic linear rule over
lag windows: a contrarian weight on the stock's own close momentum plus
positive weights on the momenta of its two nearest-neighbor stocks by
close-window log-energy.  The ladder pins the nearest neighbor to the
group partner, so next-day movement is exactly predictable from the rule
and the neighbor terms carry the part of the signal that needs the
cross-stock structure.  A bounded market-wide drift rides on every
close: too small to flip a step's sign, it contaminates each stock's
observed momentum while nearly cancelling in the rule score, which
rewards readers that can estimate it from the whole cross-section.

All constants are written as comment lines at the top of the generated
manifest; closes are serialized with full round-trip precision so the
rule can be re-evaluated bit-exactly from the files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .market_data import CSV_HEADER, RAW_INDICATORS

@dataclass
class RuleSpec:
    """Constants of the planted rule; defaults are the tuned values."""

    momentum_window: int = 4   # close-difference span entering the score
    energy_window: int = 10    # close-return span defining neighbor energies
    own_weight: float = 1.0    # contrarian: enters the score negatively
    n1_weight: float = 0.85
    n2_weight: float = 0.1
    group_size: int = 2        # co-moving stocks per volatility rung
    base_vol: float = 0.6      # price-unit step scale of the lowest-vol group
    vol_growth: float = 2.5    # geometric ladder between groups
    idio_frac: float = 0.4     # idiosyncratic step fraction inside a group
    mag_base: float = 0.5      # |close step| = vol * (mag_base + mag_swing*|xi|)
    mag_swing: float = 0.8
    revert: float = 0.97       # mean-reversion of the open/high/low factor paths
    drift_frac: float = 0.35   # market-wide close drift, in units of group vol;
                               # must stay below mag_base so steps keep their sign

    @property
    def warmup(self) -> int:
        return max(self.momentum_window, self.energy_window)


def group_of(n_stocks: int, spec: RuleSpec) -> np.ndarray:
    """Group index per stock; a short tail joins the last full group."""
    n_groups = max(n_stocks // spec.group_size, 1)
    return np.minimum(np.arange(n_stocks) // spec.group_size, n_groups - 1)


def group_volatilities(n_groups: int, spec: RuleSpec) -> np.ndarray:
    """Geometric volatility ladder: base_vol * vol_growth ** group."""
    return spec.base_vol * spec.vol_growth ** np.arange(n_groups)


# The top rung's volatility stays this factor below sqrt(float max).  The
# rule squares close returns, and z-scoring sums a close walk's squared
# deviations, which came to 0.2-0.3 * days**2 squared rung volatilities
# at 600 and 3000 days; the headroom keeps both finite up to about 10**5
# days, MAX_DAYS.  tests/test_synth.py checks both at 600 days.
LADDER_HEADROOM = 2.0 ** 16
MAX_DAYS = 10 ** 5
# stocks x days of one dataset: generate's peak is about fourteen float64
# arrays of this many entries, 8 MB each at the bound
MAX_STOCK_DAYS = 10 ** 6


def max_stocks(spec: RuleSpec) -> int:
    """Largest stock count whose volatility ladder float64 can carry."""
    top_vol = math.sqrt(np.finfo(np.float64).max) / LADDER_HEADROOM
    rungs = int(math.log(top_vol / spec.base_vol, spec.vol_growth)) + 1
    return spec.group_size * (rungs + 1) - 1


def stock_scales(n_stocks: int, spec: RuleSpec) -> np.ndarray:
    """Per-stock close-step scale: group volatility times sqrt(1 + idio^2)."""
    groups = group_of(n_stocks, spec)
    vols = group_volatilities(int(groups.max()) + 1, spec)[groups]
    return vols * np.sqrt(1.0 + spec.idio_frac ** 2)


def rule_directions(closes: np.ndarray, scales: np.ndarray, spec: RuleSpec,
                    t: int) -> np.ndarray:
    """Planted direction (+-1) for the step into day t+1, computed from
    closes[:, : t + 1] only.

    Momentum of stock x is (close(t) - close(t - momentum_window)) /
    scale_x; the window energy is the sum of squared close returns over
    the last energy_window days; neighbors are the two stocks with the
    nearest log-energy, two argmins over one N x N gap buffer (ties to the
    lower index; with two stocks the second is the stock itself); the score is
    -own_weight * mu_i + n1_weight * mu_n1 + n2_weight * mu_n2
    and the direction is +1 when the score is >= 0.
    """
    if t < spec.warmup:
        raise ConfigError(f"rule needs {spec.warmup} past returns, got t={t}")
    momentum = (closes[:, t] - closes[:, t - spec.momentum_window]) / scales
    returns = np.diff(closes[:, t - spec.energy_window:t + 1], axis=1)
    energy = np.log((returns ** 2).sum(axis=1))
    rows = np.arange(closes.shape[0])
    gaps = np.subtract.outer(energy, energy)
    np.abs(gaps, out=gaps)
    gaps[rows, rows] = np.inf
    n1 = gaps.argmin(axis=1)
    gaps[rows, n1] = np.inf
    n2 = np.where(np.isinf(gaps.min(axis=1)), rows, gaps.argmin(axis=1))
    scores = (-spec.own_weight * momentum + spec.n1_weight * momentum[n1]
              + spec.n2_weight * momentum[n2])
    return np.where(scores >= 0.0, 1.0, -1.0)


def generate(n_stocks: int, n_days: int, seed: int,
             spec: RuleSpec | None = None) -> dict[str, np.ndarray]:
    """Simulate all indicator paths; returns arrays keyed by column name,
    each N x n_days."""
    spec = spec or RuleSpec()
    if n_stocks < 2:
        raise ConfigError(f"need at least 2 stocks, got {n_stocks}")
    largest = max_stocks(spec)
    if n_stocks > largest:
        raise ConfigError(
            f"at most {largest} stocks fit the volatility ladder "
            f"(base_vol {spec.base_vol} * vol_growth {spec.vol_growth} ** group), "
            f"got {n_stocks}")
    if not spec.warmup + 12 <= n_days <= MAX_DAYS:
        raise ConfigError(f"need {spec.warmup + 12} to {MAX_DAYS} days, got {n_days}")
    if n_stocks * n_days > MAX_STOCK_DAYS:
        raise ConfigError(f"at most MAX_STOCK_DAYS = {MAX_STOCK_DAYS} stock-days, got "
                          f"{n_stocks} stocks x {n_days} days = {n_stocks * n_days}")
    if seed < 0:
        raise ConfigError(f"seed must not be negative, got {seed}")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0x5E17]))
    groups = group_of(n_stocks, spec)
    n_groups = int(groups.max()) + 1
    group_vol = group_volatilities(n_groups, spec)
    scales = stock_scales(n_stocks, spec)

    # mean-reverting shared-factor path per group for the open/high/low
    # channels; reversion keeps later periods inside the training-era
    # distribution after z-scoring
    factor_steps = rng.normal(0.0, 1.0, (n_groups, n_days)) * group_vol[:, None]
    idio_steps = rng.normal(0.0, 1.0, (n_stocks, n_days)) * (0.3 * group_vol[groups])[:, None]
    factor_dev = np.zeros((n_groups, n_days))
    idio_dev = np.zeros((n_stocks, n_days))
    for t in range(1, n_days):
        factor_dev[:, t] = spec.revert * factor_dev[:, t - 1] + factor_steps[:, t]
        idio_dev[:, t] = spec.revert * idio_dev[:, t - 1] + idio_steps[:, t]
    anchors = 3000.0 + 200.0 * np.arange(n_groups)[:, None]
    open_path = anchors[groups] + factor_dev[groups] + idio_dev
    spread = np.abs(factor_steps)[groups] + 0.1 * group_vol[groups][:, None]
    high_path = open_path + spread
    low_path = open_path - spread
    volume = 1e6 * (1.0 + groups[:, None]) * np.exp(rng.normal(0.0, 0.1, (n_stocks, n_days)))

    # close: additive walk with planted step directions plus a market-wide
    # drift that is too small to flip any step's sign; the drift pollutes
    # every stock's observed momentum but nearly cancels in the rule score,
    # so decoding benefits from estimating it cross-sectionally
    close = np.empty((n_stocks, n_days))
    close[:, 0] = 1000.0 + 10.0 * np.arange(n_stocks)
    shared_mag = rng.normal(0.0, 1.0, (n_groups, n_days))
    idio_mag = rng.normal(0.0, 1.0, (n_stocks, n_days))
    warmup_dirs = np.where(rng.random((n_stocks, n_days)) < 0.5, 1.0, -1.0)
    market_shock = rng.normal(0.0, 1.0, n_days)
    market_state = 0.0
    vols = group_vol[groups]
    for t in range(n_days - 1):
        mix = (shared_mag[groups, t + 1] + spec.idio_frac * idio_mag[:, t + 1]) \
            / np.sqrt(1.0 + spec.idio_frac ** 2)
        magnitude = vols * (spec.mag_base + spec.mag_swing * np.abs(mix))
        if t < spec.warmup:
            dirs = warmup_dirs[:, t]
        else:
            dirs = rule_directions(close, scales, spec, t)
        market_state = 0.9 * market_state + 0.3 * market_shock[t + 1]
        drift = spec.drift_frac * np.tanh(market_state) * vols
        close[:, t + 1] = close[:, t] + dirs * magnitude + drift

    return {
        "open": open_path,
        "high": high_path,
        "low": low_path,
        "adj_close": close,
        "volume": volume,
    }


def trading_dates(n_days: int, start: str = "2020-01-02") -> list[str]:
    from datetime import date, timedelta
    d = date.fromisoformat(start)
    out: list[str] = []
    while len(out) < n_days:
        if d.weekday() < 5:
            out.append(d.isoformat())
        d += timedelta(days=1)
    return out


def write_dataset(out_dir, n_stocks: int, n_days: int, seed: int,
                  spec: RuleSpec | None = None, n_sectors: int = 5) -> str:
    """Generate and write per-stock CSVs plus a commented manifest; returns
    the manifest path.  Sectors are assigned round-robin, deliberately
    unrelated to the energy pairing."""
    from pathlib import Path

    spec = spec or RuleSpec()
    data = generate(n_stocks, n_days, seed, spec)
    dates = trading_dates(n_days)
    scales = stock_scales(n_stocks, spec)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tickers = [f"SYN{i:02d}" for i in range(n_stocks)]
    for i, ticker in enumerate(tickers):
        with open(out_dir / f"{ticker}.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for j, d in enumerate(dates):
                row = ",".join(f"{data[c][i, j]:.17g}" for c in RAW_INDICATORS)
                fh.write(f"{d},{row}\n")

    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("# synthetic planted-rule dataset\n")
        fh.write(f"# momentum_window={spec.momentum_window}"
                 f" energy_window={spec.energy_window}\n")
        fh.write(f"# score = -{spec.own_weight}*mu_own + {spec.n1_weight}*mu_n1"
                 f" + {spec.n2_weight}*mu_n2; direction = sign(score), ties up\n")
        fh.write("# mu_x = (close_x(t) - close_x(t-momentum_window)) / scale_x;"
                 " neighbors n1, n2 minimize the |log close-return energy gap| over"
                 " the energy window, ties to the lower stock index\n")
        fh.write(f"# seed={seed} n_stocks={n_stocks} n_days={n_days}"
                 f" group_size={spec.group_size} base_vol={spec.base_vol}"
                 f" vol_growth={spec.vol_growth}"
                 f" idio_frac={spec.idio_frac} mag_base={spec.mag_base}"
                 f" mag_swing={spec.mag_swing} revert={spec.revert}"
                 f" drift_frac={spec.drift_frac}\n")
        fh.write("# scales=" + ",".join(f"{s:.17g}" for s in scales) + "\n")
        fh.write("ticker,path,sector\n")
        for i, ticker in enumerate(tickers):
            fh.write(f"{ticker},{ticker}.csv,SEC{i % n_sectors}\n")
    return str(manifest)
