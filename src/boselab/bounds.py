"""Analytic right-hand sides for the propagation and truncation inequalities.

Every evaluator here computes the closed-form upper bound that the matching
probe in :mod:`boselab.probes` measures numerically.  The bounds overflow
float64 at very modest parameters (they reach e^~thousands), so all internal
arithmetic is done on logarithms and results are reported as
:class:`BoundValue` pairs (log-value, value-if-representable).  A bound's
validity conditions are flags on its BoundValue, not exceptions.  Two
failures do raise BoundConditionError: ``solve_eta``'s conditions, since it
must return a usable q, and lattice constants that leave the tail proof's
distance window empty.  A derived constant that float64 cannot hold
raises ConstantError when the BoundConstants are made, as a field
out of range does.

The constants C0, C1, C2, C3, C3p and Gamma_c are existence constants:
they are user parameters defaulting to 1 (C1 and C2 to derived values) and
are never tested numerically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import LatticeGraph

_LOG_MAX = math.log(sys.float_info.max)  # the largest x with a finite e^x

# Search caps: the highest moment order the markov-optimized tail bound
# scans, and the largest occupation cutoff solve_eta tries.
TAIL_S_CAP = 50_000
ETA_Q_CAP = 1_000_000_000

# Matrix-exponential lemma constants; chi is pinned, C follows from it.
CHI = 3.59
ADJACENCY_C = 2.0 * CHI**2 / (CHI - 1.0)


class BoundConditionError(ValueError):
    """A validity condition of an analytic bound is violated."""


class ConstantError(ValueError):
    """A BoundConstants field out of range, or a derived constant that overflows.

    ``field`` names the field at fault: of an overflowing constant's log
    terms, the largest.  ``constant`` names that constant (None when the
    field itself is out of range).
    """

    def __init__(self, field: str, message: str, constant: str | None = None) -> None:
        super().__init__(message)
        self.field, self.constant = field, constant


def _log(x: float) -> float:
    if x < 0:
        raise ValueError(f"expected a non-negative factor, got {x}")
    return -math.inf if x == 0.0 else math.log(x)


@dataclass(frozen=True)
class BoundValue:
    """A bound in log-space plus its validity conditions.

    ``value`` is exp(log_value) when that is representable in float64, else
    +inf; a log_value of -inf reports as exactly 0.0.
    """

    log_value: float
    value: float
    conditions: tuple[tuple[str, bool], ...] = ()

    @property
    def valid(self) -> bool:
        return all(ok for _, ok in self.conditions)


def _mk(log_value: float, conditions: tuple[tuple[str, bool], ...] = ()) -> BoundValue:
    lv = float(log_value)
    if lv == -math.inf:
        value = 0.0
    elif lv <= _LOG_MAX:
        value = math.exp(lv)
    else:
        value = math.inf
    return BoundValue(lv, value, conditions)


@dataclass(frozen=True)
class BoundConstants:
    """Model and initial-state constants feeding every bound evaluator.

    c0 and qbar come from the low-density condition on the initial state, q0
    is the creation degree of the probed observable, t0 the short-time window
    and zeta0 its operator norm.  J_bar, dG, gamma, lambda0 and D describe
    the model on its lattice, and k is its interaction range (a model's
    k_max; the CLI fills it in unless the constants block sets it).  eta is only available after the truncation
    budget has been solved (see :func:`solve_eta`) and gates the c3 family.
    """

    c0: float
    qbar: float
    t0: float
    J_bar: float
    dG: float
    gamma: float
    lambda0: float
    D: int
    q0: float = 0.0
    k: int = 1
    zeta0: float = 1.0
    eta: float | None = None
    C0: float = 1.0
    C1: float | None = None
    C2: float | None = None
    C3: float = 1.0
    C3p: float = 1.0
    Gamma_c: float = 1.0

    def __post_init__(self) -> None:
        v = vars(self)
        rules = [("c0", 0.0 < self.c0 <= 1.0, "lie in (0, 1]")]
        rules += [(f, v[f] >= 0, "be non-negative") for f in ("qbar", "q0", "J_bar")]
        rules += [(f, v[f] >= 1, "be >= 1") for f in ("dG", "gamma", "lambda0", "D", "k")]
        positive = ("t0", "zeta0", "C0", "C3", "C3p", "Gamma_c")
        rules += [(f, v[f] > 0, "be positive") for f in positive]
        rules += [(f, v[f] is None or v[f] > 0, "be positive") for f in ("eta", "C1", "C2")]
        for field, ok, rule in rules:
            if not ok:
                raise ConstantError(field, f"{field} = {v[field]} must {rule}")
        # a constant past log(float max), or one of its terms past it (a
        # power or exponential that overflows on its own), fails here, where
        # the caller can still name the field behind it
        for name, formula, log_prefactor, terms in self._log_terms():
            field, largest = max(terms, key=lambda term: term[1])
            if max(log_prefactor + sum(x for _, x in terms), largest) > _LOG_MAX:
                raise ConstantError(
                    field, f"{field} = {v[field]} overflows {name} = {formula}", name
                )

    def _log_terms(self) -> list[tuple[str, str, float, list[tuple[str, float]]]]:
        """(name, formula, log prefactor, terms) of c1, c1'', c1'(1) and, with eta, c3, c3', e c3'.

        The prefactor's log and the terms sum to the constant's log; each
        term is keyed by the field it grows with.  e c3' is 1/delta_t0, which
        underflows to 0 where e c3' overflows.
        """
        c0, lc0, jdt = self.c0, math.log(self.c0), self.J_bar * self.dG * self.t0
        out = [
            ("c1", "e^(8 J_bar dG t0) / c0", 0.0, [("t0", 8.0 * jdt), ("c0", -lc0)]),
            ("c1''", "80 lambda0 / c0 e^(4 J_bar dG t0 + c0)", math.log(80.0),
             [("t0", 4.0 * jdt), ("c0", c0 - lc0), ("lambda0", math.log(self.lambda0))]),
            ("c1'", "320 c0^-3 e^(4 J_bar dG t0 + c0 (1 + q0 / sizeX)) at sizeX = 1",
             math.log(320.0), [("t0", 4.0 * jdt), ("c0", c0 - 3.0 * lc0), ("q0", c0 * self.q0)]),
        ]
        if self.eta is not None:
            power, gamma = ("D", self.D * math.log(2.0 * self.k)), ("gamma", math.log(self.gamma))
            c3 = [("J_bar", _log(self.J_bar)), ("eta", math.log(self.eta)), gamma, power,
                  ("dG", math.log(self.dG))]
            c3p = [*c3, ("k", math.log(self.k)), gamma, power]
            out += [
                ("c3", "4 J_bar eta gamma (2k)^D dG", math.log(4.0), c3),
                ("c3'", "16 e k c3 gamma (2k)^D", math.log(64.0 * math.e), c3p),
                ("1/delta_t0", "e c3'", math.log(64.0) + 2.0, c3p),
            ]
        return out

    # -- derived constants ------------------------------------------------

    @property
    def c1(self) -> float:
        return math.exp(8.0 * self.J_bar * self.dG * self.t0) / self.c0

    def c1p(self, sizeX: float) -> float:
        if sizeX < 1:
            raise ValueError("sizeX must be >= 1")
        return 320.0 * self.c0**-3 * math.exp(
            4.0 * self.J_bar * self.dG * self.t0 + self.c0 * (1.0 + self.q0 / sizeX)
        )

    @property
    def c1pp(self) -> float:
        return 80.0 * self.lambda0 / self.c0 * math.exp(
            4.0 * self.J_bar * self.dG * self.t0 + self.c0
        )

    @property
    def c3(self) -> float:
        if self.eta is None:
            raise ValueError("eta is not set; solve it first (solve_eta)")
        return 4.0 * self.J_bar * self.eta * self.gamma * (2.0 * self.k) ** self.D * self.dG

    @property
    def c3p(self) -> float:
        return 16.0 * math.e * self.k * self.c3 * self.gamma * (2.0 * self.k) ** self.D

    @property
    def delta_t0(self) -> float:
        c3p = self.c3p
        return math.inf if c3p == 0.0 else 1.0 / (math.e * c3p)

    @property
    def effective_C1(self) -> float:
        if self.C1 is not None:
            return self.C1
        return self.delta_t0 if self.eta is not None else 1.0

    @property
    def effective_C2(self) -> float:
        return self.C2 if self.C2 is not None else self.C0 + 4.0


def _ctilde(consts: BoundConstants, r: float) -> tuple[float, float]:
    """Exponent constants for the distance-window Markov argument.

    The tail proof takes s = floor(d / (2 log(gamma r^D))); absorbing the
    floor costs a factor (1 - 1/sigma) with sigma = 3D/(log gamma + D),
    which must exceed 1 for the window to contain an integer.
    """
    if r < 3:
        raise ValueError("r must be >= 3")
    loggamma = math.log(consts.gamma)
    sigma = 3.0 * consts.D / (loggamma + consts.D)
    if sigma <= 1.0:
        raise BoundConditionError(
            "sigma = 3D/(log gamma + D) <= 1: the s-window cannot absorb the floor"
        )
    c1_tilde = consts.c1 / (2.0 * consts.D)
    c1p_tilde = (1.0 - 1.0 / sigma) / (2.0 * (loggamma + consts.D))
    return c1_tilde, c1p_tilde


# -- moment and tail bounds ------------------------------------------------


def moment_bound(s: int, sizeX: float, d_iX: float, consts: BoundConstants) -> BoundValue:
    """Bound on the s-th number moment at distance d_iX from the support X."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if sizeX < 1:
        raise ValueError("sizeX must be >= 1")
    if d_iX < 0:
        raise ValueError("d_iX must be non-negative")
    shared = consts.c0 * consts.qbar + 2.0 * _log(consts.zeta0)
    near = (
        math.log(consts.c1p(sizeX))
        + shared
        + 3.0 * math.log(sizeX)
        + s * math.log(consts.c1 * s * sizeX)
        - d_iX
    )
    far = math.log(consts.c1pp) + shared + s * math.log(consts.c1 * s)
    return _mk(float(np.logaddexp(near, far)))


def first_moment_bound(
    d_iX: float, t: float, N_X: float, n0: float, consts: BoundConstants
) -> BoundValue:
    """First-moment bound 10 (N_X e^{-d} + n0 lambda0) e^{3 J_bar dG t}.

    Unlike the general-s bound this needs no short-time window and no zeta0
    factor; N_X and n0 are the initial boson numbers in X and per site.
    """
    if d_iX < 0 or t < 0 or N_X < 0 or n0 < 0:
        raise ValueError("d_iX, t, N_X and n0 must be non-negative")
    near = _log(N_X) - d_iX
    far = _log(n0) + math.log(consts.lambda0)
    log_v = math.log(10.0) + float(np.logaddexp(near, far)) + 3.0 * consts.J_bar * consts.dG * t
    return _mk(log_v)


def initial_moment_bounds(
    s: int, sizeX: float, consts: BoundConstants
) -> tuple[BoundValue, BoundValue]:
    """(single-site, whole-region) moment bounds at t = 0 under the MGF condition."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if sizeX < 1:
        raise ValueError("sizeX must be >= 1")
    lfact = math.lgamma(s + 1)
    logc0 = math.log(consts.c0)
    single = (
        2.0 * _log(consts.zeta0) + consts.c0 * (consts.qbar + 1.0) + lfact - (s + 1) * logc0
    )
    region = (
        math.log(4.0)
        + 2.0 * _log(consts.zeta0)
        + (s + 3) * (math.log(sizeX) - logc0)
        + lfact
        + consts.c0 * (consts.qbar + 1.0 + consts.q0 / sizeX)
    )
    return _mk(single), _mk(region)


def _log_threshold(r: float, consts: BoundConstants) -> float:
    """2 log(gamma^3 c1p/c1pp) + 6 D log r, with c1p at |X| = gamma r^D.

    The least distance of the paper-mode tail bound, and the least ell0 of
    the truncation bounds.
    """
    sizeX = consts.gamma * float(r) ** consts.D
    log_ratio = math.log(consts.gamma**3 * consts.c1p(sizeX) / consts.c1pp)
    return 2.0 * log_ratio + 6.0 * consts.D * math.log(r)


def tail_bound(
    z0: int,
    d_iX: float,
    r: float,
    consts: BoundConstants,
    mode: str = "markov-optimized",
) -> BoundValue:
    """Bound on the probability of >= z0 bosons at distance d_iX from X = i0[r].

    "markov-optimized" minimizes moment_bound(s)/z0^s over integer s up to
    TAIL_S_CAP and is always sound; "paper" evaluates the closed
    distance-window form, which additionally needs d_iX above the stated log
    threshold.
    """
    if z0 < 1:
        raise ValueError("z0 must be a positive integer")
    if r < 3:
        raise ValueError("r must be >= 3")
    if d_iX < 0:
        raise ValueError("d_iX must be non-negative")
    sizeX = consts.gamma * float(r) ** consts.D

    if mode == "markov-optimized":
        logz = math.log(z0)
        s_stop = min(max(64, int(z0 / (consts.c1 * math.e)) + 10), TAIL_S_CAP)
        best = math.inf
        for s in range(1, s_stop + 1):
            best = min(best, moment_bound(s, sizeX, d_iX, consts).log_value - s * logz)
        return _mk(best)

    if mode != "paper":
        raise ValueError(f"unknown tail mode {mode!r}")

    c1t, c1pt = _ctilde(consts, r)
    logr = math.log(r)
    d_min = _log_threshold(r, consts)
    base = c1t * d_iX / z0
    conds = (
        ("d_iX >= 2 log(gamma^3 c1p/c1pp) + 6 D log r", d_iX >= d_min),
        ("decay base c1_tilde d_iX / z0 <= 1", base <= 1.0),
    )
    power = c1pt * d_iX / logr
    tail_term = 0.0 if power == 0.0 else power * _log(base)
    log_v = (
        math.log(2.0)
        + math.log(consts.c1pp)
        + consts.c0 * consts.qbar
        + 2.0 * _log(consts.zeta0)
        + tail_term
    )
    return _mk(log_v, conds)


# -- truncation machinery ----------------------------------------------------


def _ell0_conditions(
    ell0: float, r: float, consts: BoundConstants, c1p_tilde: float
) -> tuple[tuple[str, bool], ...]:
    logr = math.log(r)
    return (
        ("ell0 >= 2 log(gamma^3 c1p/c1pp) + 6 D log r", ell0 >= _log_threshold(r, consts)),
        ("ell0 >= 6 log r / c1p_tilde", ell0 >= 6.0 * logr / c1p_tilde),
        ("ell0 >= log^2 r", ell0 >= logr**2),
    )


def _truncation_log(
    q: float, sizeL: float, ell0: float, r: float, consts: BoundConstants, c1t: float, c1pt: float
) -> float:
    # shared kernel: 8 sqrt2 t0 c1pp dG J q |L| (2|L|+q) (c1t ell0/q)^{c1pt ell0 / (2 log r)}
    power = 0.5 * c1pt * ell0 / math.log(r)
    return (
        math.log(8.0 * math.sqrt(2.0))
        + math.log(consts.t0)
        + math.log(consts.c1pp)
        + math.log(consts.dG)
        + _log(consts.J_bar)
        + math.log(q)
        + math.log(sizeL)
        + math.log(2.0 * sizeL + q)
        + power * math.log(c1t * ell0 / q)
    )


def truncation_error_bound(
    q: int,
    sizeL: float,
    ell0: float,
    r: float,
    consts: BoundConstants,
) -> BoundValue:
    """Trace-norm error of evolving with the occupation-truncated Hamiltonian."""
    if q < 1 or sizeL < 1 or ell0 <= 0:
        raise ValueError("q, sizeL >= 1 and ell0 > 0 required")
    c1t, c1pt = _ctilde(consts, r)
    conds = _ell0_conditions(ell0, r, consts, c1pt)
    log_v = (
        consts.c0 * consts.qbar
        + _log(consts.zeta0)
        + _truncation_log(q, sizeL, ell0, r, consts, c1t, c1pt)
    )
    return _mk(log_v, conds)


class EtaResult(NamedTuple):
    eta: float
    q: int


def solve_eta(
    ell0: float,
    r: float,
    sizeLtilde: float,
    consts: BoundConstants,
) -> EtaResult:
    """Smallest occupation cutoff q whose truncation error fits the step budget.

    The budget is (1/2) e^{-2 ell0 / log r}; the e^{c0 qbar} zeta0 factor
    appears on both sides and cancels.  Returns eta = q / ell0 together with
    the minimizing q, and asserts minimality of the returned q.  Raises
    BoundConditionError when a condition on ell0 fails or no q up to
    ETA_Q_CAP fits.
    """
    if ell0 <= 0 or sizeLtilde < 1:
        raise ValueError("ell0 > 0 and sizeLtilde >= 1 required")
    c1t, c1pt = _ctilde(consts, r)
    for name, ok in _ell0_conditions(ell0, r, consts, c1pt):
        if not ok:
            raise BoundConditionError(f"validity condition violated: {name}")
    target = math.log(0.5) - 2.0 * ell0 / math.log(r)

    def excess(q: int) -> float:
        return _truncation_log(q, sizeLtilde, ell0, r, consts, c1t, c1pt) - target

    # The satisfying q sits near c1t*ell0*e^{4/c1pt}, far too large for a
    # linear scan.  The log-excess eventually decreases in q (the power-law
    # decay factor beats the polynomial prefactor), so bracket the first
    # non-positive value on a doubling grid and bisect to the crossing; the
    # bisection invariant excess(lo) > 0 >= excess(hi) makes the returned q
    # minimal at the crossing.
    if excess(1) <= 0.0:
        return EtaResult(eta=1.0 / ell0, q=1)
    lo, hi = 1, 2
    while hi < ETA_Q_CAP and excess(hi) > 0.0:
        lo, hi = hi, min(hi * 2, ETA_Q_CAP)
    if excess(hi) > 0.0:
        raise BoundConditionError(
            f"no q <= {ETA_Q_CAP} meets the truncation budget; "
            f"log-residual at the cap is {excess(ETA_Q_CAP):.3e}"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    assert excess(hi) <= 0.0 and excess(hi - 1) > 0.0
    return EtaResult(eta=hi / ell0, q=hi)


def concentration_bound(
    q: int,
    sizeL: float,
    ell0: float,
    r: float,
    consts: BoundConstants,
) -> BoundValue:
    """Weight outside the q-occupation subspace of a region L at distance >= ell0."""
    if q < 1 or sizeL < 1 or ell0 <= 0:
        raise ValueError("q, sizeL >= 1 and ell0 > 0 required")
    c1t, c1pt = _ctilde(consts, r)
    power = 0.5 * c1pt * ell0 / math.log(r)
    log_v = (
        math.log(2.0)
        + math.log(consts.c1pp)
        + consts.c0 * consts.qbar
        + _log(consts.zeta0)
        + math.log(sizeL)
        + power * math.log(c1t * ell0 / q)
    )
    return _mk(log_v)


# -- short-time and assembled propagation bounds ----------------------------


def short_lr_bound(
    ell0: float,
    boundary_size: float,
    t: float,
    consts: BoundConstants,
) -> BoundValue:
    """Error of restricting one short step to the doubled-halo region."""
    if ell0 <= 0 or boundary_size < 0 or t < 0:
        raise ValueError("ell0 > 0, boundary_size >= 0 and t >= 0 required")
    conds = (("t <= delta_t0 = 1/(e c3p)", t <= consts.delta_t0),)
    log_v = (
        math.log(2.0)
        + 3.0
        + _log(consts.zeta0)
        + _log(consts.c3)
        + _log(t)
        + _log(boundary_size)
        + _log(ell0)
        - ell0 / (2.0 * consts.k)
    )
    return _mk(log_v, conds)


def subtheorem_bound(ell: float, r: float, consts: BoundConstants) -> BoundValue:
    """One-step approximation error zeta0 e^{c0 qbar - ell/log r + C0 log r}."""
    if r < 3:
        raise ValueError("r must be >= 3")
    if ell <= 0:
        raise ValueError("ell must be positive")
    logr = math.log(r)
    conds = (("ell >= C0 log^2 r", ell >= consts.C0 * logr**2),)
    log_v = _log(consts.zeta0) + consts.c0 * consts.qbar - ell / logr + consts.C0 * logr
    return _mk(log_v, conds)


def main_lr_bound(R: float, r0: float, t: float, consts: BoundConstants) -> BoundValue:
    """Assembled light-cone error for approximating O_{X0}(t) on the ball i0[R]."""
    if R <= r0:
        raise ValueError("R must exceed r0")
    if R <= 1:
        raise ValueError("R must exceed 1")
    if t <= 0:
        raise ValueError("t must be positive")
    logR = math.log(R)
    conds = (("t >= 1", t >= 1.0),)
    log_v = (
        _log(consts.zeta0)
        + consts.c0 * consts.qbar
        - consts.effective_C1 * (R - r0) / (t * logR)
        + consts.effective_C2 * logR
    )
    return _mk(log_v, conds)


def lightcone_radius(t: float, delta: float, consts: BoundConstants) -> float:
    """Radius making the assembled error at most delta * zeta0.

    The closed-form radius t log^2 t * max(...) is asymptotic; whenever it is
    not yet self-consistent at the requested t, the radius is grown to the
    minimal one satisfying main_lr_bound <= delta * zeta0 (checked per call).
    """
    if t < math.e:
        raise ValueError("t must be >= e")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    C1 = consts.effective_C1
    C2 = consts.effective_C2
    R = t * math.log(t) ** 2 * max(
        consts.Gamma_c,
        4.0 * C2 / C1 + 2.0 * (consts.c0 * consts.qbar + math.log(1.0 / delta)) / C1,
    )
    target = math.log(delta) + _log(consts.zeta0)

    def ok(radius: float) -> bool:
        return main_lr_bound(radius, 0.0, t, consts).log_value <= target

    if not ok(R):
        lo, hi = R, max(2.0 * R, 4.0)
        while not ok(hi):
            lo, hi = hi, 2.0 * hi
            if hi > 1e300:
                raise RuntimeError("no self-consistent radius below 1e300")
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        R = hi
    assert ok(R)
    return R


def clustering_bound(
    R: float,
    DeltaE: float,
    consts: BoundConstants,
    *,
    norm_X: float = 1.0,
    norm_Y: float = 1.0,
) -> BoundValue:
    """Gapped ground-state correlation decay across distance R."""
    if R < 3:
        raise ValueError("R must be >= 3")
    if DeltaE <= 0:
        raise ValueError("DeltaE must be positive")
    logR = math.log(R)
    log_inv = math.log(1.0 / DeltaE)
    threshold = (1.0 / DeltaE) * max(0.0, log_inv) ** 3
    conds = (("R >= const (1/DeltaE) log^3(1/DeltaE)", R >= threshold),)
    log_v = (
        _log(consts.C3)
        + _log(norm_X)
        + _log(norm_Y)
        - math.sqrt(consts.C3p * DeltaE * R / logR)
    )
    return _mk(log_v, conds)


class QuenchBounds(NamedTuple):
    error: BoundValue
    cost: BoundValue
    cost_1d: BoundValue


def quench_bounds(
    R: float,
    r0: float,
    t: float,
    consts: BoundConstants,
    *,
    epsilon: float = math.exp(-1.0),
) -> QuenchBounds:
    """Error, gate-cost, and 1D time-complexity forms for local quench dynamics.

    The error has the assembled light-cone shape and no zeta0 (the quench
    unitary is exactly unitary): its decay constant is effective_C1 and its
    offset C0 + 2.  The cost is R^D log R, and epsilon is the 1D cost's
    target precision.
    """
    if R <= r0 or R <= 1:
        raise ValueError("need R > r0 and R > 1")
    if t <= 0:
        raise ValueError("t must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    # step recombination gives (C0+1) log R + 1/log R <= (C0+2) log R
    C2 = consts.C0 + 2.0
    logR = math.log(R)
    conds = (("t >= 1", t >= 1.0),)
    err_log = consts.c0 * consts.qbar - consts.effective_C1 * (R - r0) / (t * logR) + C2 * logR
    cost_log = R**consts.D * logR
    log_inv = math.log(1.0 / epsilon)
    cost1d_log = t * math.log(t) ** 3 + t * log_inv * math.log(log_inv) ** 2
    return QuenchBounds(
        error=_mk(err_log, conds),
        cost=_mk(cost_log),
        cost_1d=_mk(cost1d_log, conds),
    )


# -- matrix-exponential lemma ------------------------------------------------


class AdjacencyBound(NamedTuple):
    matrix: np.ndarray
    spectral_norm: float
    v0: float


def adjacency_exp_bound(g: LatticeGraph, J_scale: float, t: float) -> AdjacencyBound:
    """Entrywise bound C e^{v0 t - d(i,j)} on the hopping-graph exponential.

    v0 = chi * J_scale * ||M||/2 with the exact adjacency spectral norm; the
    caller folds any prefactor of the generator into J_scale.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if J_scale < 0:
        raise ValueError("J_scale must be non-negative")
    adj = (g.distances == 1).astype(np.float64)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(adj)))) if g.edges else 0.0
    v0 = CHI * J_scale * norm / 2.0
    matrix = ADJACENCY_C * np.exp(v0 * t - g.distances.astype(np.float64))
    return AdjacencyBound(matrix=matrix, spectral_norm=norm, v0=v0)


# -- f_s polynomial machinery ------------------------------------------------


@dataclass(frozen=True)
class FsPolynomial:
    """Degree-s polynomial with f(x+1) - f(x) = s x^{s-1} and f(0) = 0."""

    s: int
    coeffs: tuple[Fraction, ...]  # ascending powers, coeffs[0] == 0

    def __call__(self, x: int | Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@lru_cache(maxsize=None)
def fs_polynomial(s: int) -> FsPolynomial:
    """Exact rational coefficients of f_s, by Faulhaber's formula.

    f_s(x) = s sum_{0 <= j < x} j^{s-1} = sum_{k<s} C(s, k) B_k x^{s-k}, with
    the Bernoulli numbers B_k of B_1 = -1/2 from their recurrence
    sum_{k<=n} C(n+1, k) B_k = 0 (Graham, Knuth and Patashnik, Concrete
    Mathematics, section 6.5).  The j = 0 term is nonzero only for s = 1
    (0^0 = 1), where it makes f_1(x) = x.
    """
    if not 1 <= s <= 20:
        raise ValueError("s must lie in 1..20")
    B = [Fraction(1)]
    for n in range(1, s):
        B.append(-sum(math.comb(n + 1, k) * B[k] for k in range(n)) / (n + 1))
    coeffs = [Fraction(0)] * (s + 1)
    for k in range(s):
        coeffs[s - k] = math.comb(s, k) * B[k]
    return FsPolynomial(s=s, coeffs=tuple(coeffs))
