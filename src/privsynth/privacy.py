"""Budget accounting in the concentrated-DP regime, plus the two mechanisms.

The accountant tracks a total budget rho derived from (epsilon, delta) via
epsilon = rho + 2*sqrt(rho*ln(1/delta)); rho composes additively across
mechanism calls and post-processing is free. The ledger adds spends exactly
and refuses one that would take the exact total past rho, with no tolerance;
share(N) is the largest equal spend of which N fit. The Gaussian mechanism
perturbs a sensitivity-1/n answer with variance 1/(2*n^2*rho). Noisy-max
selection adds i.i.d. Gumbel(1/(sqrt(2*rho)*n)) noise to error scores and
reports the argmax, which matches exponential-mechanism selection
probabilities.

The neighbour relation is replace-one (bounded DP): two tables are neighbours
when they have the same n and differ in one row. Sensitivity 1/n and the
default delta = 1/n^2 both treat n as public.

All randomness flows through explicit NoiseSource streams; there is no global
RNG state. The mechanisms' streams are private only while their noise is
secret: unseeded, a stream draws its seed from OS entropy and nothing records
it; seeded, it is reproducible and its noise can be undone by anyone who
holds the seed. A rho of +inf is the sentinel for noiseless test runs: mechanisms
become identity/argmax and the ledger records zero spend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class BudgetError(ValueError):
    """A spend would exceed the total budget, or parameters are invalid."""


def rho_from_eps_delta(epsilon: float, delta: float) -> float:
    """Solve epsilon = rho + 2*sqrt(rho*L) for rho, with L = ln(1/delta).

    Closed form: rho = (sqrt(L + epsilon) - sqrt(L))^2, computed as
    (epsilon / (sqrt(L + epsilon) + sqrt(L)))^2, which has no cancellation. At
    delta = 1 the conversion collapses to rho = epsilon.
    """
    if not 0 < epsilon < math.inf:
        raise BudgetError(f"epsilon must be finite and > 0, got {epsilon}")
    if not 0 < delta <= 1:
        raise BudgetError(f"delta must be in (0, 1], got {delta}")
    big_l = math.log(1.0 / delta)
    return (epsilon / (math.sqrt(big_l + epsilon) + math.sqrt(big_l))) ** 2


def eps_from_rho_delta(rho: float, delta: float) -> float:
    """epsilon = rho + 2*sqrt(rho*ln(1/delta)); inverse of rho_from_eps_delta."""
    if rho < 0:
        raise BudgetError(f"rho must be >= 0, got {rho}")
    if not 0 < delta <= 1:
        raise BudgetError(f"delta must be in (0, 1], got {delta}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


_STREAM_SALT = {"init": 0, "gaussian": 1, "gumbel": 2, "rounding": 3}


class NoiseSource:
    """A named PCG64 stream: secret when unseeded, reproducible when seeded.

    The label names one of the fit's four streams (init, gaussian, gumbel,
    rounding); any other label raises ValueError. With seed=None the stream
    is seeded from 128 bits of OS entropy (np.random.SeedSequence()), which
    no output records, so the noise cannot be regenerated from a release. An
    integer seed derives the stream from (seed, label), so one run seed fans
    out into independent sub-streams and each is reproducible on its own;
    noise drawn that way can be subtracted by anyone who knows the seed.
    PCG64 is a statistical generator, not a secure one (see README).
    """

    def __init__(self, seed: int | None, label: str):
        if label not in _STREAM_SALT:
            raise ValueError(f"label must be one of {', '.join(_STREAM_SALT)}; got {label!r}")
        entropy = None if seed is None else (int(seed), _STREAM_SALT[label])
        self._rng = np.random.default_rng(np.random.SeedSequence(entropy))

    def uniform(self, size: int | None = None):
        """Uniform draws on the open interval (0, 1)."""
        u = self._rng.random(size)
        tiny = np.finfo(np.float64).tiny
        return float(max(u, tiny)) if size is None else np.maximum(u, tiny)

    def normal(self, scale: float, size: int | None = None):
        """Centered Gaussian draws with standard deviation `scale`."""
        return self._rng.normal(0.0, scale, size)

    def uniform_signed(self, shape):
        """Uniform draws on [-1, 1); used for dataset initialization."""
        return self._rng.uniform(-1.0, 1.0, shape)


def gaussian_noise_sigma(n: int, rho: float) -> float:
    """Standard deviation sqrt(1/(2*n^2*rho)) for a sensitivity-1/n answer."""
    return math.sqrt(1.0 / (2.0 * n * n * rho))


def gaussian_mechanism(true_answer, n: int, rho: float, rng: NoiseSource):
    """Perturb answer(s) with Gaussian noise of variance 1/(2*n^2*rho).

    Accepts a scalar or a vector of answers; one draw is consumed per answer,
    in order. rho = +inf is the noiseless sentinel and returns the input
    unchanged. Recording the spend on a ledger is the caller's job.
    """
    if n < 1:
        raise BudgetError(f"n must be >= 1, got {n}")
    if math.isinf(rho):
        return true_answer
    if not rho > 0:
        raise BudgetError(f"rho must be > 0, got {rho}")
    sigma = gaussian_noise_sigma(n, rho)
    arr = np.asarray(true_answer, dtype=np.float64)
    if arr.ndim == 0:
        return float(arr) + rng.normal(sigma)
    return arr + rng.normal(sigma, size=arr.shape[0])


def gumbel_sample(scale: float, rng: NoiseSource, size: int | None = None):
    """Standard Gumbel draws scaled by `scale`: -scale*ln(-ln(U)), U in (0,1)."""
    if not scale > 0:
        raise BudgetError(f"scale must be > 0, got {scale}")
    u = rng.uniform(size)
    return -scale * np.log(-np.log(u))


def report_noisy_max(
    true_answers, conjectured, n: int, rho: float, rng: NoiseSource
) -> int:
    """Index of the largest |true - conjectured| after Gumbel perturbation.

    Noise scale is 1/(sqrt(2*rho)*n); one draw per candidate is consumed in
    index order. rho = +inf returns the deterministic argmax. Ties break
    toward the smallest index.
    """
    t = np.asarray(true_answers, dtype=np.float64)
    c = np.asarray(conjectured, dtype=np.float64)
    if t.shape != c.shape or t.ndim != 1:
        raise BudgetError(f"score vectors must be equal-length 1-D, got {t.shape} vs {c.shape}")
    if t.shape[0] == 0:
        raise BudgetError("cannot select from empty score vectors")
    scores = np.abs(t - c)
    if math.isinf(rho):
        return int(np.argmax(scores))
    if not rho > 0:
        raise BudgetError(f"rho must be > 0, got {rho}")
    scale = 1.0 / (math.sqrt(2.0 * rho) * n)
    return int(np.argmax(scores + gumbel_sample(scale, rng, size=t.shape[0])))


# The budget cap is exact (see PrivacyBudget). bench/run.py and
# bench/test_smoke.py still import this as the ledger's relative cap slack.
_CAP_SLACK = 0.0

_UNIT = 2**1074  # spends are counted in units of 2**-1074, the smallest positive double


def _units(x: float) -> int:
    """Finite x >= 0 as an exact integer number of units of 2**-1074."""
    num, den = x.as_integer_ratio()  # den = 2**k with k <= 1074
    return num << (1075 - den.bit_length())


@dataclass
class PrivacyBudget:
    """Total budget plus an append-only ledger of per-call spends.

    Every finite double is an integer multiple of 2**-1074, so the ledger's
    running total is kept exactly as one int counting that unit, rebuilt
    from any ledger given at construction and updated on each spend. The cap
    check compares that int with rho_total in the same unit, with no
    tolerance: a ledger never totals more than a finite rho_total. Record
    spends through spend(), which keeps the two in step.

    A finite rho_total must reproduce epsilon at delta. The one budget without
    a cap is rho_total = epsilon = +inf, the noiseless sentinel (non_private()).
    """

    epsilon: float
    delta: float
    rho_total: float
    ledger: list[tuple[str, float]] = field(default_factory=list)
    _total: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rho_total == math.inf:
            if self.epsilon != math.inf:
                raise BudgetError(
                    f"an infinite rho_total is the noiseless sentinel and needs epsilon inf, "
                    f"got {self.epsilon}"
                )
        else:
            back = eps_from_rho_delta(self.rho_total, self.delta)
            if not abs(back - self.epsilon) <= 1e-9:  # a NaN on either side fails too
                raise BudgetError(
                    f"rho_total {self.rho_total} does not reproduce epsilon "
                    f"{self.epsilon} (got {back})"
                )
        self._total = sum(_units(rho) for _, rho in self.ledger)

    @property
    def private(self) -> bool:
        """Whether spends are capped: true exactly when rho_total is finite."""
        return math.isfinite(self.rho_total)

    @classmethod
    def from_eps_delta(cls, epsilon: float, delta: float) -> "PrivacyBudget":
        if not 0 < delta < 1:
            raise BudgetError(f"delta must be in (0, 1), got {delta}")
        rho = rho_from_eps_delta(epsilon, delta)
        if rho == 0.0:  # epsilon too small beside ln(1/delta): rho underflows
            raise BudgetError(f"epsilon {epsilon} at delta {delta} gives rho 0.0; raise epsilon")
        return cls(epsilon, delta, rho)

    @classmethod
    def non_private(cls) -> "PrivacyBudget":
        """Noiseless sentinel budget for test runs; spends are recorded as 0."""
        return cls(math.inf, 0.0, math.inf)

    def spend(self, label: str | list[str], rho: float) -> None:
        """Book rho under `label`, or under each of a list of m labels (m equal spends).

        The cap is checked once, exactly, before anything is booked, so a
        batch that would overspend books nothing.
        """
        if not 0.0 <= rho < math.inf:
            raise BudgetError(f"ledger spend must be finite and >= 0, got {rho}")
        labels = [label] if isinstance(label, str) else label
        m = len(labels)
        new_total = self._total + _units(rho) * m
        if self.private and new_total > _units(self.rho_total):
            more = f" and {m - 1} more labels" if m > 1 else ""
            excess = (new_total - _units(self.rho_total)) / _UNIT
            raise BudgetError(
                f"spend {rho} for {labels[0]!r}{more} would exceed budget "
                f"{self.rho_total} by {excess!r}"
            )
        self.ledger.extend((lab, rho) for lab in labels)
        self._total = new_total

    def share(self, calls: int) -> float:
        """The largest float s with calls * s <= rho_total exactly; +inf when rho_total is."""
        s = self.rho_total / calls
        if math.isfinite(s):
            while _units(s) * calls > _units(self.rho_total):
                s = math.nextafter(s, 0.0)
        return s

    def spent(self) -> float:
        """The ledger's exact total, correctly rounded: math.fsum of its spends."""
        return self._total / _UNIT

    def remaining(self) -> float:
        return self.rho_total - self.spent()

    def summary(self) -> dict:
        """The budget as JSON values; the non-private sentinel's infinities become null."""
        values = {"epsilon": self.epsilon, "delta": self.delta, "rho_total": self.rho_total,
                  "rho_spent": self.spent()}
        out = {key: value if math.isfinite(value) else None for key, value in values.items()}
        return dict(out, private=self.private)

    def ledger_json(self) -> list[dict]:
        return [{"label": lab, "rho": rho} for lab, rho in self.ledger]
