"""Doubly robust scores per arm and their binary-arm difference."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _freeze
from .errors import ValidationError
from .nuisance import NuisanceSet


@dataclass(frozen=True)
class PseudoOutcomes:
    """n x m matrix of doubly robust scores.

    Row i, column a holds the outcome-model prediction for arm a plus, only on
    the observed arm, the inverse-propensity-weighted residual correction.
    """

    values: np.ndarray  # (n, m)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValidationError(f"pseudo-outcome matrix must be 2-d, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValidationError("pseudo-outcome matrix contains non-finite entries")
        _freeze(self, values=v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


def dr_pseudo_outcomes(data: Dataset, nuis: NuisanceSet) -> PseudoOutcomes:
    """Materialize the doubly robust score for every observation and arm.

    values[i, a] = mu_hat(a|x_i) + 1{A_i = a} / phi_hat(a|x_i) * (Y_i - mu_hat(a|x_i)),
    which reduces to the model prediction on every unobserved arm.
    """
    if nuis.n != data.n or nuis.m != data.m:
        raise ValidationError(
            f"nuisance shape ({nuis.n}, {nuis.m}) does not match data ({data.n}, {data.m})"
        )
    values = nuis.outcome_mean.copy()
    rows = np.arange(data.n)
    observed = data.actions
    with np.errstate(over="ignore"):  # PseudoOutcomes refuses a score that overflows
        resid = data.outcomes - nuis.outcome_mean[rows, observed]
        values[rows, observed] += resid / nuis.propensity[rows, observed]
    return PseudoOutcomes(values=values)


def effect_pseudo_outcome(pseudo: PseudoOutcomes) -> np.ndarray:
    """Score for the treatment effect: arm-1 column minus arm-0 column (m=2), finite."""
    if pseudo.m != 2:
        raise ValidationError(f"effect scores require exactly 2 arms, got m={pseudo.m}")
    with np.errstate(over="ignore"):
        effect = pseudo.values[:, 1] - pseudo.values[:, 0]
    if not np.isfinite(effect).all():
        raise ValidationError("effect scores overflow: psi_1 - psi_0 is not finite")
    return effect


def dump_pseudo_outcomes(pseudo: PseudoOutcomes, path: str) -> None:
    """Debug dump of the score matrix as CSV with columns psi_0..psi_{m-1}."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"psi_{a}" for a in range(pseudo.m)])
        for row in pseudo.values:
            writer.writerow([repr(float(v)) for v in row])
