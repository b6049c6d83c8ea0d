"""Decoy-state resource estimates for photonic remote state preparation.

The sender emits phase-randomized weak coherent pulses (signal intensity mu,
one weak decoy nu1, one vacuum decoy) through a lossy channel; only
single-photon pulses prepare honest blind qubits, so the estimates hinge on
a lower bound for the single-photon fraction p1 of detected signal pulses.

Channel model and bound (notation: T channel transmittance, Y0 dark/stray
yield, Q_x = Y0 + 1 - exp(-x T) the yield of intensity x):

    Y1 >= (mu / (mu nu1 - nu1^2)) * ( Q_nu1 e^{nu1}
          - Q_mu e^{mu} nu1^2 / mu^2 - (mu^2 - nu1^2)/mu^2 * Y0 )
    p1 >= Y1 * mu e^{-mu} / Q_mu

with the asymptotic (perfect-estimation) counterpart Y1 -> Y0 + T. The
vacuum decoy contributes only through Y0, which is why nu2 must be zero.

Pulse budget: collecting S single-photon successes with failure chance at
most eps requires

    N = ceil( (S / T) * ( ln(eps / S) / (p_mu mu ln(1 - p1)) + C ) )

where C is the extra per-success overhead of carving an encoded block out
of the cluster (C = 0 for direct, non-encoded preparation). A non-encoded
qubit must instead be repeated

    k = ln(1 - (1 - e^2)^S) / ln(1 - (1 - e)^S)

times to match the encoded block's residual error, so the quantities to
compare are N_coded against ceil(k) * N_d. Preparation efficiency is
E = S f / N for source repetition rate f.

k assumes that an encoded block fails with probability e^2. The recovery
that `steane` implements fails on all 21 weight-2 X patterns and on 43
heavier ones of the 128, so for independent X errors at e = 0.01 its block
fails with probability 2.004e-3, about 20 e^2; k keeps the e^2 model.

Each ExperimentParams computes once, on first use, every term of these
formulas that depends on it alone (the intensities' exponentials and
squares, the decoy bound's coefficients, ln(eps / S), p_mu mu, S f, the
fixed transmittance) and k. `estimate` prices a row in one pass, in the order
above, computing each term and making each check once, with the bits and
errors of computing each term per row: the terms after the bound's underflow
guard are computed only when the guard passes, and a k that raises is not
cached, so every row raises it anew after the checks that precede it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

from .errors import EstimationError, InputError

__all__ = [
    "ExperimentParams",
    "ResourceRow",
    "transmittance",
    "repetition_factor",
    "estimate",
    "sweep",
]


@dataclass(frozen=True)
class ExperimentParams:
    """Source, channel, and protocol parameters (defaults: the reference
    telecom scenario used throughout the tests)."""

    alpha_db_km: float = 0.2  # fiber loss
    t_source: float = 0.45  # source-side transmittance
    eta_det: float = 0.1  # receiver detection efficiency
    mu: float = 0.6  # signal intensity
    nu1: float = 0.125  # weak decoy intensity
    nu2: float = 0.0  # second decoy; must stay vacuum
    p_mu: float = 0.9  # emission probabilities per intensity
    p_nu1: float = 0.05
    p_nu2: float = 0.05
    successes: int = 1000  # S, single-photon qubits to collect
    eps_fail: float = 1e-10  # acceptable chance of falling short
    err_rate: float = 0.01  # per-qubit preparation error e
    block_overhead: float = 1774.0  # C, extra pulses per encoded success
    rep_rate_hz: float = 1e6  # source repetition rate f
    y0_dark: float = 0.0  # dark/stray count yield Y0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the range of a float
                raise InputError(f"{f.name} is too large for a float") from None
            if not finite:
                raise InputError(f"{f.name} must be a finite number, got {value!r}")
        if not 0.0 < self.mu <= 1.0:
            raise InputError("signal intensity mu must lie in (0, 1]")
        if not 0.0 < self.nu1 < self.mu:
            raise InputError("weak decoy nu1 must lie strictly between 0 and mu")
        if self.nu2 != 0.0:
            raise InputError(
                "the single-photon bound implemented here assumes a vacuum "
                "second decoy (nu2 = 0)"
            )
        probs = (self.p_mu, self.p_nu1, self.p_nu2)
        if any(not 0.0 < q < 1.0 for q in probs):
            raise InputError("intensity probabilities must lie in (0, 1)")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise InputError("intensity probabilities must sum to 1")
        if not 0.0 < self.t_source <= 1.0 or not 0.0 < self.eta_det <= 1.0:
            raise InputError("transmittance factors must lie in (0, 1]")
        if self.alpha_db_km < 0.0:
            raise InputError("fiber loss cannot be negative")
        if self.successes < 1:
            raise InputError("need at least one success")
        if not 0.0 < self.eps_fail < 1.0:
            raise InputError("failure budget must lie in (0, 1)")
        if not 0.0 < self.err_rate < 1.0:
            raise InputError("error rate must lie in (0, 1)")
        if self.block_overhead < 0.0:
            raise InputError("block overhead cannot be negative")
        if self.rep_rate_hz <= 0.0:
            raise InputError("repetition rate must be positive")
        if not 0.0 <= self.y0_dark < 1.0:
            raise InputError("dark yield must lie in [0, 1)")

    # cached_property writes the instance __dict__, which eq, hash, repr and
    # dataclasses.replace never read: a replaced copy prices its own terms
    @cached_property
    def _priced(self) -> _Priced:
        return _Priced(self)

    @cached_property
    def _k(self) -> float:
        # a k that raises caches nothing, so every row raises it anew
        return repetition_factor(self)


class _Priced:
    """The terms of the estimates that depend on the parameters alone, each
    the whole subexpression that the per-row formula would compute."""

    __slots__ = (
        "fixed_t", "neg_alpha", "exp_mu", "exp_nu1", "exp_neg_mu", "nu1_sq",
        "mu_sq", "decoy_ok", "mu_over_spread", "vacuum",
        "log_ratio", "p_mu_mu", "rate",
    )

    def __init__(self, p: ExperimentParams) -> None:
        self.fixed_t = p.t_source * p.eta_det
        self.neg_alpha = -p.alpha_db_km
        self.exp_mu = math.exp(p.mu)
        self.exp_nu1 = math.exp(p.nu1)
        self.exp_neg_mu = math.exp(-p.mu)
        self.nu1_sq = p.nu1**2
        self.mu_sq = p.mu**2
        spread = p.mu * p.nu1 - self.nu1_sq
        # the terms behind the decoy bound's guard: when it fails, every row
        # raises there, and they would divide by zero
        self.decoy_ok = spread != 0.0 and self.mu_sq != 0.0
        if self.decoy_ok:
            self.mu_over_spread = p.mu / spread
            self.vacuum = (self.mu_sq - self.nu1_sq) / self.mu_sq * p.y0_dark
        ratio = p.eps_fail / p.successes
        # once the quotient underflows to 0, the difference of the logs stands in
        self.log_ratio = (
            math.log(ratio) if ratio else math.log(p.eps_fail) - math.log(p.successes)
        )
        self.p_mu_mu = p.p_mu * p.mu
        self.rate = p.successes * p.rep_rate_hz


def transmittance(length_km: float, p: ExperimentParams) -> float:
    """End-to-end transmittance of length_km of fiber plus fixed losses."""
    if length_km < 0.0:
        raise InputError("fiber length cannot be negative")
    c = p._priced
    return c.fixed_t * 10.0 ** (c.neg_alpha * length_km / 10.0)


def repetition_factor(p: ExperimentParams) -> float:
    """How many times a bare qubit must be re-prepared for its residual error
    to match one error-corrected block of the same size."""
    if p.err_rate**2 == 0.0:
        raise EstimationError(f"error rate {p.err_rate:.6g} underflows when squared")
    coded = _log_one_minus_exp(p.successes * math.log1p(-p.err_rate**2))
    bare = _log_one_minus_exp(p.successes * math.log1p(-p.err_rate))
    k = coded / bare if bare else math.inf  # (1 - e)^S underflowed to 0
    if not math.isfinite(k):
        raise EstimationError(f"repetition factor overflows at S = {p.successes}")
    return k


def _log_one_minus_exp(x: float) -> float:
    """log(1 - e^x) for x < 0."""
    # log1p(-exp(x)) while e^x is small, as at the defaults: there
    # log(-expm1(x)) takes the log of a near-1 float and drops three digits
    # of the quotient. Once e^x rounds to 1 the subtraction leaves 0, while
    # -expm1(x) is still exact.
    y = math.exp(x)
    return math.log1p(-y) if y < 1.0 else math.log(-math.expm1(x))


@dataclass
class ResourceRow:
    """One fiber length's worth of estimates (the CSV row of the CLI)."""

    length_km: float
    t: float
    p1_lower: float
    n_coded: int
    n_direct: int
    k: float
    k_n_direct: int
    n_asym: int
    e_coded: float
    e_direct_k: float
    e_asym: float


def estimate(length_km: float, p: ExperimentParams) -> ResourceRow:
    """Full estimate at one fiber length; raises EstimationError when any
    bound degenerates."""
    t = transmittance(length_km, p)
    c = p._priced
    # expm1 keeps the full relative precision of 1 - exp(-x) when x*T is tiny
    # (long fibers drive it below 1e-5, where the subtraction loses digits).
    q_mu = p.y0_dark - math.expm1(-p.mu * t)
    if q_mu <= 0.0:
        raise EstimationError(f"no detected signal events at T = {t:.6g}: channel is opaque")
    q_nu1 = p.y0_dark - math.expm1(-p.nu1 * t)
    if not c.decoy_ok:
        raise EstimationError(
            f"intensities mu = {p.mu:.6g}, nu1 = {p.nu1:.6g} underflow the decoy bound"
        )
    y1 = c.mu_over_spread * (q_nu1 * c.exp_nu1 - q_mu * c.exp_mu * c.nu1_sq / c.mu_sq - c.vacuum)
    p1 = y1 * p.mu * c.exp_neg_mu / q_mu
    if not 0.0 < p1 < 1.0:
        raise EstimationError(f"single-photon bound left (0, 1): p1 = {p1:.6g} at T = {t:.6g}")
    p1_inf = (p.y0_dark + t) * p.mu * c.exp_neg_mu / q_mu  # Y1 = Y0 + T
    if not 0.0 < p1_inf < 1.0:
        raise EstimationError(f"asymptotic single-photon fraction left (0, 1): p1 = {p1_inf:.6g}")
    if t <= 0.0:  # dark counts alone can pass the decoy bounds
        raise EstimationError(f"transmittance is {t!r}: channel is opaque")
    per_t = p.successes / t
    # ln(eps / S) / (p_mu mu ln(1 - p1)) is never -0.0, so N_d need not add C = 0.0
    per_success = c.log_ratio / (c.p_mu_mu * math.log1p(-p1))
    n_coded = _count(per_t * (per_success + p.block_overhead))
    n_direct = _count(per_t * per_success)
    n_asym = _count(per_t * (c.log_ratio / (c.p_mu_mu * math.log1p(-p1_inf))))
    k = p._k
    k_n_direct = math.ceil(k) * n_direct
    # in field order: matching eleven keywords would cost about 1 us a row
    return ResourceRow(
        length_km, t, p1, n_coded, n_direct, k, k_n_direct, n_asym,
        _per_second(n_coded, c.rate), _per_second(k_n_direct, c.rate),
        _per_second(n_asym, c.rate),
    )


def _count(raw: float) -> int:
    """A pulse count N from its unceiled value."""
    if not math.isfinite(raw) or raw <= 0.0:
        raise EstimationError(f"pulse count came out non-physical: {raw!r}")
    return math.ceil(raw)


def _per_second(n_pulses: int, rate: float) -> float:
    """Prepared qubits per second, E = S f / N, for rate S f."""
    if n_pulses <= 0:
        raise EstimationError("efficiency needs a positive pulse count")
    try:
        return rate / n_pulses
    except OverflowError:  # an int pulse count beyond the range of a float
        raise EstimationError("pulse count is too large for a float") from None


def sweep(lengths_km, p: ExperimentParams) -> list:
    """Estimate each length; failed rows come back as (length, None, reason)."""
    out = []
    for length in lengths_km:
        length = float(length)
        try:
            out.append((length, estimate(length, p), None))
        except EstimationError as exc:
            out.append((length, None, str(exc)))
    return out
