"""Weight schemes for retargeted objectives, the outcome-mean gap, and the
variance proxy / selection ratios used to compare schemes."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import _freeze
from .errors import ValidationError
from .nuisance import NuisanceSet, _mean, _rows

DEFAULT_GAP_FLOOR = 1e-3


@dataclass(frozen=True)
class WeightScheme:
    """Named nonnegative per-observation weights, normalized to sample mean 1."""

    kind: str
    weights: np.ndarray  # (n,), mean 1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError(f"weights must be a nonempty vector, got shape {w.shape}")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValidationError("weights must be finite and nonnegative")
        mean = _mean(w)
        if abs(mean - 1.0) > 1e-9:
            raise ValidationError(f"weights must have sample mean 1, got {float(mean)!r}")
        _freeze(self, weights=w)

    @classmethod
    def from_raw(cls, kind: str, raw: np.ndarray) -> "WeightScheme":
        """Normalize raw nonnegative weights to sample mean 1: the mean is
        checked here, finite and positive, and the entries by __post_init__."""
        raw = np.asarray(raw, dtype=float)
        mean = _mean(raw)
        if not 0.0 < mean < np.inf:
            raise ValidationError(f"raw weights of {kind} have mean {mean}, not finite and > 0")
        return cls(kind=kind, weights=raw / mean)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def uniform_weights(n: int) -> WeightScheme:
    return WeightScheme(kind="uniform", weights=np.ones(n))


def homoskedastic_weights(nuis: NuisanceSet) -> WeightScheme:
    """Retargeting weights under constant residual variance.

    Raw weight per row: 1 / (sum_a 1/phi_hat(a|x) + m/2 - 1); for m = 2 this
    is phi_hat(+|x) * phi_hat(-|x) up to scale.
    """
    p = nuis.propensity
    if (p <= 0).any():
        raise ValidationError("propensities must be strictly positive")
    raw = 1.0 / (_rows(np.add, 1.0 / p) + nuis.m / 2.0 - 1.0)
    return WeightScheme.from_raw("w0", raw)


def gap_statistics(nuis: NuisanceSet) -> np.ndarray:
    """The (n,) gap of the outcome-mean matrix: each row's best arm mean minus
    its best strictly smaller one.

    Ties are exact: if all arms share the top mean the gap is 0; flooring is
    left to the consumers that need it (negative powers, ratio denominators).
    """
    mu = nuis.outcome_mean
    top = _rows(np.maximum, mu)
    runner_up = _rows(np.maximum, np.where(mu < top[:, None], mu, -np.inf))
    return np.where(np.isfinite(runner_up), top - runner_up, 0.0)


def _check_gap(gap: np.ndarray, n: int) -> np.ndarray:
    gap = np.asarray(gap, dtype=float)
    if gap.shape != (n,):
        raise ValidationError("gap statistics and weights have mismatched lengths")
    if (gap < 0).any():
        raise ValidationError("gap entries must be nonnegative")
    return gap


def curvature_scaled_weights(
    base: WeightScheme,
    gap: np.ndarray,
    power: float,
    floor: float = DEFAULT_GAP_FLOOR,
) -> WeightScheme:
    """Rescale a weight scheme by the local outcome gap raised to a power.

    Gaps are floored at `floor` before exponentiation so negative powers stay
    finite near ties. power = 0 returns the base scheme unchanged. Every
    `w0_dp:<p>` scheme of make_weights is built here.
    """
    _check_gap_scaling(power, floor)
    gap = _check_gap(gap, base.n)
    if power == 0:
        return base
    # A power that overflows leaves an infinite raw mean, which from_raw refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        raw = base.weights * np.maximum(gap, floor) ** power
        return WeightScheme.from_raw(f"{base.kind}_dp:{power:g}", raw)


def _check_gap_scaling(power: float, floor: float) -> None:
    if not np.isfinite(power):
        raise ValidationError(f"power must be finite, got {power}")
    _check_floor(floor)


def _check_floor(floor: float) -> None:
    if not 0.0 < floor < np.inf:
        raise ValidationError(f"gap floor must be finite and > 0, got {floor}")


def _row_noise(nuis: NuisanceSet) -> np.ndarray:
    """Per-row noise term of the variance proxy: sum_a var(a|x)/phi(a|x) plus
    the cross-arm correction (m/2 - 1) * pooled variance."""
    pooled = float(nuis.variance.mean())
    return _rows(np.add, nuis.variance / nuis.propensity) + (nuis.m / 2.0 - 1.0) * pooled


def variance_proxy(w: WeightScheme, nuis: NuisanceSet) -> float:
    """Scale-invariant proxy for the sampling variance of the w-weighted
    objective: mean(w^2 * c) / mean(w)^2 with c the per-row noise term.

    Under constant variance its pointwise minimizer over weight schemes is the
    homoskedastic retargeting scheme.
    """
    if w.n != nuis.n:
        raise ValidationError(f"weights cover {w.n} rows, nuisances {nuis.n}")
    c = _row_noise(nuis)
    return float(np.mean(w.weights**2 * c) / np.mean(w.weights) ** 2)


def selection_ratio(
    w: WeightScheme,
    gap: np.ndarray,
    nuis: NuisanceSet,
    direction: str,
    floor: float = DEFAULT_GAP_FLOOR,
) -> float:
    """Noise-to-signal ratio for scheme selection.

    times_delta: sqrt(proxy) / mean(w * gap) — favors schemes that put weight
    where arm means are far apart. over_delta: sqrt(proxy) / mean(w / gap)
    (gap floored) — favors weight near the decision margin.
    """
    if direction not in ("times_delta", "over_delta"):
        raise ValidationError(f"direction must be 'times_delta' or 'over_delta', got {direction!r}")
    gap = _check_gap(gap, w.n)
    if direction == "times_delta":
        denom = float(np.mean(w.weights * gap))
    else:
        _check_floor(floor)
        denom = float(np.mean(w.weights / np.maximum(gap, floor)))
    if denom <= 0:
        raise ValidationError(
            f"selection ratio denominator is {denom!r} for direction {direction!r}; "
            "weights and gaps have no overlap (all weighted gaps are zero)"
        )
    return float(np.sqrt(variance_proxy(w, nuis)) / denom)


def parse_scheme(spec: str, gap_floor: float = DEFAULT_GAP_FLOOR) -> tuple[str, float]:
    """The kind (`uniform`, `w0` or `w0_dp`) and gap power (0 but for
    `w0_dp:<p>`) of a CLI weight scheme name, checked with the gap floor."""
    kind, power = spec, 0.0
    if spec.startswith("w0_dp:"):
        kind = "w0_dp"
        try:
            power = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad weight power in {spec!r}") from None
    elif spec not in ("uniform", "w0"):
        raise ValidationError(
            f"unknown weight scheme {spec!r}; expected uniform, w0, or w0_dp:<p>"
        )
    _check_gap_scaling(power, gap_floor)
    return kind, power


def make_weights(
    spec: str | Sequence[str], nuis: NuisanceSet, gap_floor: float = DEFAULT_GAP_FLOOR
) -> WeightScheme | tuple[WeightScheme, ...]:
    """Build a weight scheme from its CLI name: `uniform`, `w0`, or `w0_dp:<p>`.

    A sequence of names gives the tuple of their schemes. Every name is parsed
    before any scheme is built, so the first bad name raises its own error;
    past that, the first name whose build fails raises it. One call builds the
    homoskedastic weights and the gap at most once, for all of its
    names; `w0` and `w0_dp:0` are that one w0 scheme.
    """
    if isinstance(spec, str):
        return make_weights((spec,), nuis, gap_floor)[0]
    parsed = [parse_scheme(name, gap_floor) for name in spec]
    base = gap = None
    schemes = []
    for kind, power in parsed:
        if kind == "uniform":
            schemes.append(uniform_weights(nuis.n))
            continue
        if base is None:
            base = homoskedastic_weights(nuis)
        if power != 0 and gap is None:
            gap = gap_statistics(nuis)
        schemes.append(base if power == 0 else curvature_scaled_weights(base, gap, power, gap_floor))
    return tuple(schemes)
