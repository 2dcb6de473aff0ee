"""Analytic bound evaluators: constants, moments, tails, light cones."""

import math
from fractions import Fraction

import numpy as np
import pytest

from boselab.bounds import (
    ADJACENCY_C,
    CHI,
    BoundConditionError,
    BoundConstants,
    ConstantError,
    adjacency_exp_bound,
    clustering_bound,
    concentration_bound,
    first_moment_bound,
    fs_polynomial,
    initial_moment_bounds,
    lightcone_radius,
    main_lr_bound,
    moment_bound,
    quench_bounds,
    short_lr_bound,
    solve_eta,
    subtheorem_bound,
    tail_bound,
    truncation_error_bound,
    _LOG_MAX,
    _mk,
)
from boselab.lattice import build_lattice
from helpers import fs_check_rows


def base_consts(**over):
    kw = dict(
        c0=1.0, qbar=1.0, t0=0.1, J_bar=1.0, dG=2.0, gamma=3.0, lambda0=2.0, D=1
    )
    kw.update(over)
    return BoundConstants(**kw)


# gamma = 1 makes sigma = 3 and c1_tilde' = 1/3, the friendliest regime for
# the truncation machinery (solvable q values fit in an int)
def flat_consts(**over):
    kw = dict(
        c0=1.0, qbar=0.0, t0=0.01, J_bar=1.0, dG=1.0, gamma=1.0, lambda0=1.0, D=1
    )
    kw.update(over)
    return BoundConstants(**kw)


def failed(bv):
    """The names of a bound's false validity conditions, in order."""
    return [name for name, ok in bv.conditions if not ok]


def test_constants_validation():
    for bad in (
        dict(c0=0.0),
        dict(c0=1.5),
        dict(c0=-0.3),
        dict(t0=0.0),
        dict(J_bar=-1.0),
        dict(dG=0.5),
        dict(gamma=0.9),
        dict(lambda0=0.5),
        dict(D=0),
        dict(k=0),
        dict(zeta0=0.0),
        dict(eta=1e306),  # c3' overflows, so delta_t0 would be 0
    ):
        with pytest.raises(ValueError):
            base_consts(**bad)


@pytest.mark.parametrize(
    "over, constant, field",
    [
        (dict(t0=45.0), "c1", "t0"),  # 8 J dG t0 = 720
        (dict(lambda0=1e308), "c1''", "lambda0"),
        (dict(q0=2000.0), "c1'", "q0"),
        (dict(c0=1e-110), "c1'", "c0"),  # c0^-3 = 1e330, while 1/c0 fits in c1
        (dict(eta=1.0, D=2000), "c3", "D"),
        (dict(eta=1.0, D=2000, J_bar=0.0), "c3", "D"),  # c3 = 0, but (2k)^D overflows
        (dict(eta=1e307), "c3", "eta"),
        (dict(eta=1.0, D=600), "c3'", "D"),  # c3 = 4 J gamma 2^600 dG fits
        (dict(eta=1e306), "c3'", "eta"),
        (dict(eta=1.357e304), "1/delta_t0", "eta"),  # c3' = 1.7e308 fits, e c3' does not
    ],
)
def test_overflowing_constant_names_its_field(over, constant, field):
    with pytest.raises(ConstantError) as info:
        base_consts(**over)
    assert (info.value.constant, info.value.field) == (constant, field)
    assert str(info.value).startswith(f"{field} = {over[field]} overflows {constant} = ")


def test_a_bound_value_is_finite_up_to_log_float_max():
    assert _mk(705.0).value == math.exp(705.0)
    assert math.isfinite(_mk(_LOG_MAX).value)
    assert _mk(math.nextafter(_LOG_MAX, math.inf)).value == math.inf
    assert _mk(-math.inf).value == 0.0


def test_constants_just_below_overflow_are_kept():
    # 16 t0 = 709 < log(float max): c1 is finite and no constant is refused
    assert math.isfinite(base_consts(t0=709.0 / 16.0).c1)
    assert math.isfinite(base_consts(eta=1.0, D=500).c3p)


def test_derived_constants_frozen_values():
    c = base_consts()
    # 8 J dG t0 = 1.6 at these parameters
    assert c.c1 == pytest.approx(math.exp(1.6), rel=1e-12)
    assert c.c1p(1.0) == pytest.approx(320.0 * math.exp(0.8 + 1.0), rel=1e-12)
    assert c.c1pp == pytest.approx(80.0 * 2.0 * math.exp(0.8 + 1.0), rel=1e-12)
    # q0 spreads over the region size
    c4 = base_consts(q0=2.0)
    assert c4.c1p(4.0) == pytest.approx(320.0 * math.exp(0.8 + 1.5), rel=1e-12)
    half = base_consts(c0=0.5)
    assert half.c1 == pytest.approx(math.exp(1.6) / 0.5, rel=1e-12)


def test_interaction_range_constants_frozen_values():
    c = base_consts(qbar=0.0, eta=5.0)
    # c3 = 4 J eta gamma (2k)^D dG and its e-weighted short-step variant
    assert c.c3 == pytest.approx(240.0, rel=1e-12)
    assert c.c3p == pytest.approx(16.0 * math.e * 240.0 * 3.0 * 2.0, rel=1e-12)
    assert c.delta_t0 == pytest.approx(1.0 / (math.e * c.c3p), rel=1e-12)
    with pytest.raises(ValueError):
        _ = base_consts().c3  # eta not solved yet


@pytest.mark.parametrize(
    "over",
    [
        {},
        dict(c0=0.5),
        dict(q0=2.0),
        dict(eta=5.0),
        dict(c0=0.3, q0=1.5, t0=0.7, J_bar=0.4, lambda0=3.5, eta=0.2, k=2, D=2, gamma=4.0),
    ],
)
def test_derived_constants_match_a_second_factoring(over):
    """Each derived constant equals the exponential of its summed logarithms."""
    c = base_consts(**over)

    def close(value, log_alt):
        return value == pytest.approx(math.exp(log_alt), rel=1e-12, abs=1e-12)

    hop = 4.0 * c.J_bar * c.dG * c.t0
    assert close(c.c1, 2.0 * hop - math.log(c.c0))
    assert close(c.c1pp, math.log(80.0) + math.log(c.lambda0) - math.log(c.c0) + hop + c.c0)
    for sx in (1.0, 7.0):
        log_c1p = math.log(320.0) - 3.0 * math.log(c.c0) + hop + c.c0 * (1.0 + c.q0 / sx)
        assert close(c.c1p(sx), log_c1p)
    if c.eta is None:
        return
    log_c3 = (
        math.log(4.0) + math.log(c.J_bar) + math.log(c.eta) + math.log(c.gamma)
        + c.D * math.log(2.0 * c.k) + math.log(c.dG)
    )
    log_c3p = (
        math.log(16.0) + 1.0 + math.log(c.k) + log_c3 + math.log(c.gamma)
        + c.D * math.log(2.0 * c.k)
    )
    assert close(c.c3, log_c3)
    assert close(c.c3p, log_c3p)
    assert close(c.delta_t0, -1.0 - log_c3p)


def test_effective_constant_defaults():
    c = base_consts()
    assert c.effective_C1 == 1.0
    assert c.effective_C2 == c.C0 + 4.0
    w = base_consts(eta=5.0)
    assert w.effective_C1 == pytest.approx(w.delta_t0)
    e = base_consts(C1=0.25, C2=9.0)
    assert e.effective_C1 == 0.25
    assert e.effective_C2 == 9.0


def test_bound_value_semantics():
    c = base_consts()
    bv = moment_bound(1, 1.0, 0.0, c)
    assert bv.value == pytest.approx(math.exp(bv.log_value), rel=1e-12)
    assert bv.valid and bv.conditions == ()
    # overflow reports +inf while the log stays finite
    huge = moment_bound(500, 1.0, 0.0, c)
    assert math.isfinite(huge.log_value)
    assert huge.value == math.inf
    # an exactly-zero bound has log -inf
    zero = first_moment_bound(1.0, 0.5, 0.0, 0.0, c)
    assert zero.log_value == -math.inf
    assert zero.value == 0.0


def test_moment_bound_closed_form_and_shape():
    c = base_consts()
    near_plus_far = (
        (c.c1p(1.0) + c.c1pp) * math.exp(c.c0 * c.qbar) * c.zeta0**2 * c.c1
    )
    assert moment_bound(1, 1.0, 0.0, c).value == pytest.approx(
        near_plus_far, rel=1e-12
    )
    # far from the support only the distance-free term survives
    far_only = math.log(c.c1pp) + c.c0 * c.qbar + 2 * math.log(c.c1 * 2)
    assert moment_bound(2, 1.0, 1e6, c).log_value == pytest.approx(
        far_only, rel=1e-12
    )
    d_grid = [0.0, 1.0, 3.0, 10.0]
    vals = [moment_bound(2, 4.0, d, c).log_value for d in d_grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    s_vals = [moment_bound(s, 4.0, 2.0, c).log_value for s in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(s_vals, s_vals[1:]))
    for bad in (
        dict(s=0, sizeX=1.0, d_iX=0.0),
        dict(s=1, sizeX=0.5, d_iX=0.0),
        dict(s=1, sizeX=1.0, d_iX=-1.0),
    ):
        with pytest.raises(ValueError):
            moment_bound(consts=c, **bad)


def test_first_moment_bound_values():
    c = base_consts()
    assert first_moment_bound(0.0, 0.0, 1.0, 0.0, c).value == pytest.approx(
        10.0, rel=1e-12
    )
    expect = 10.0 * (3.0 * math.exp(-2.0) + 0.5 * c.lambda0) * math.exp(
        3.0 * c.J_bar * c.dG * 0.7
    )
    assert first_moment_bound(2.0, 0.7, 3.0, 0.5, c).value == pytest.approx(
        expect, rel=1e-12
    )
    ts = [first_moment_bound(1.0, t, 2.0, 0.1, c).log_value for t in (0.0, 0.5, 1.0)]
    assert ts[0] < ts[1] < ts[2]
    with pytest.raises(ValueError):
        first_moment_bound(-1.0, 0.0, 1.0, 0.0, c)
    with pytest.raises(ValueError):
        first_moment_bound(0.0, -0.1, 1.0, 0.0, c)


def test_initial_moment_bounds_values():
    c = base_consts(qbar=0.0, zeta0=1.0)
    for s in (1, 2, 3, 4):
        single, region = initial_moment_bounds(s, 2.0, c)
        assert single.value == pytest.approx(
            math.e * math.factorial(s), rel=1e-12
        )
        assert region.value == pytest.approx(
            4.0 * 2.0 ** (s + 3) * math.factorial(s) * math.exp(1.0), rel=1e-12
        )
    frac = base_consts(c0=0.5, qbar=1.0, q0=1.0)
    single, region = initial_moment_bounds(2, 2.0, frac)
    assert single.value == pytest.approx(
        math.exp(0.5 * 2.0) * 2.0 / 0.5**3, rel=1e-12
    )
    assert region.value == pytest.approx(
        4.0 * (2.0 / 0.5) ** 5 * 2.0 * math.exp(0.5 * (1.0 + 1.0 + 0.5)), rel=1e-12
    )
    with pytest.raises(ValueError):
        initial_moment_bounds(0, 1.0, c)


def test_tail_bound_markov_optimized():
    c = base_consts()
    size_x = c.gamma * 3.0**c.D  # ball volume the evaluator assigns to X = i0[3]
    for z0 in (1, 2, 5):
        for d in (0.0, 2.0, 5.0):
            opt = tail_bound(z0, d, 3.0, c).log_value
            for s in range(1, 9):
                fixed = moment_bound(s, size_x, d, c).log_value - s * math.log(z0)
                assert opt <= fixed + 1e-12
    # a huge threshold forces a tiny optimized tail
    assert tail_bound(10**6, 0.0, 3.0, c).log_value < -100.0
    with pytest.raises(ValueError):
        tail_bound(1, 0.0, 3.0, c, mode="typo")
    with pytest.raises(ValueError):
        tail_bound(0, 0.0, 3.0, c)


def test_tail_bound_paper_mode():
    c = flat_consts()
    bp = tail_bound(10, 15.0, 3.0, c, mode="paper")
    assert bp.valid
    # closed form, re-derived: sigma = 3D/(log gamma + D) = 3 at gamma = 1,
    # c1t' = (1 - 1/sigma)/(2 (log gamma + D)) = 1/3, c1t = c1/(2D)
    c1t = math.exp(0.08) / 2.0
    power = (1.0 / 3.0) * 15.0 / math.log(3.0)
    expect = math.log(2.0 * c.c1pp) + power * math.log(c1t * 15.0 / 10.0)
    assert bp.log_value == pytest.approx(expect, rel=1e-12)
    bm = tail_bound(10, 15.0, 3.0, c, mode="markov-optimized")
    assert bm.log_value <= bp.log_value + 1e-9
    # violated distance condition
    near = tail_bound(10, 2.0, 3.0, c, mode="paper")
    assert not near.valid
    assert failed(near) == ["d_iX >= 2 log(gamma^3 c1p/c1pp) + 6 D log r"]
    # violated decay-base condition
    flags = tail_bound(1, 15.0, 3.0, c, mode="paper")
    assert not flags.valid
    assert failed(flags) == ["decay base c1_tilde d_iX / z0 <= 1"]


def test_truncation_error_bound():
    c = flat_consts()
    ell0, r = 60.0, 3.0
    qs = [10**4, 10**5, 10**6, 10**7]
    logs = [truncation_error_bound(q, 10.0, ell0, r, c).log_value for q in qs]
    assert all(a > b for a, b in zip(logs, logs[1:]))
    # short-time window scales the bound up with t0
    c_slow = flat_consts(t0=0.02)
    assert (
        truncation_error_bound(10**5, 10.0, ell0, r, c_slow).log_value
        > truncation_error_bound(10**5, 10.0, ell0, r, c).log_value
    )
    flags = truncation_error_bound(10, 10.0, 2.0, r, c)  # ell0 far below threshold
    assert not flags.valid
    assert failed(flags) == [
        "ell0 >= 2 log(gamma^3 c1p/c1pp) + 6 D log r", "ell0 >= 6 log r / c1p_tilde",
    ]


def test_solve_eta_minimality_and_budget():
    c = flat_consts()
    r, size_lt = 3.0, 5.0
    res = solve_eta(80.0, r, size_lt, c)
    assert res.q >= 1
    assert res.eta == pytest.approx(res.q / 80.0, rel=1e-15)
    # dual route: the budget inequality flips between q-1 and q (qbar = 0 and
    # zeta0 = 1 make truncation_error_bound share solve_eta's normalization)
    target = math.log(0.5) - 2.0 * 80.0 / math.log(r)
    at_q = truncation_error_bound(res.q, size_lt, 80.0, r, c).log_value
    below = truncation_error_bound(res.q - 1, size_lt, 80.0, r, c).log_value
    assert at_q <= target < below


def test_solve_eta_monotone_in_ell0():
    c = flat_consts()
    etas = [solve_eta(ell0, 3.0, 5.0, c).eta for ell0 in (60.0, 80.0, 100.0, 140.0)]
    assert all(a >= b for a, b in zip(etas, etas[1:]))


def test_solve_eta_failure_and_region_growth():
    c = flat_consts()
    with pytest.raises(BoundConditionError):
        solve_eta(40.0, 3.0, 5.0, c)  # needs q beyond the default cap
    small = solve_eta(80.0, 3.0, 5.0, c).q
    large = solve_eta(80.0, 3.0, 500.0, c).q
    assert large >= small
    with pytest.raises(ValueError):
        solve_eta(0.0, 3.0, 5.0, c)


def test_concentration_bound():
    c = flat_consts()
    ell0, r = 60.0, 3.0
    logs = [
        concentration_bound(q, 12.0, ell0, r, c).log_value
        for q in (10**4, 10**6, 10**8)
    ]
    assert logs[0] > logs[1] > logs[2]
    with pytest.raises(ValueError):
        concentration_bound(0, 12.0, ell0, r, c)


def test_short_lr_bound():
    c = base_consts(qbar=0.0, eta=5.0)
    t = 0.5 * c.delta_t0
    ell0, bsize = 8.0, 3.0
    expect = 2.0 * math.exp(3.0) * c.zeta0 * c.c3 * t * bsize * ell0 * math.exp(
        -ell0 / (2.0 * c.k)
    )
    got = short_lr_bound(ell0, bsize, t, c)
    assert got.value == pytest.approx(expect, rel=1e-12)
    assert got.valid
    assert short_lr_bound(ell0, 0.0, t, c).value == 0.0
    relaxed = short_lr_bound(ell0, bsize, c.delta_t0 * 2.0, c)
    assert not relaxed.valid
    assert failed(relaxed) == ["t <= delta_t0 = 1/(e c3p)"]


def test_subtheorem_bound():
    c = base_consts()
    ell, r = 10.0, 4.0
    logr = math.log(r)
    expect = c.c0 * c.qbar - ell / logr + c.C0 * logr
    got = subtheorem_bound(ell, r, c)
    assert got.log_value == pytest.approx(expect, rel=1e-12)
    assert got.valid == (ell >= c.C0 * logr**2)
    with pytest.raises(ValueError):
        subtheorem_bound(10.0, 2.0, c)
    with pytest.raises(ValueError):
        subtheorem_bound(0.0, 4.0, c)


def test_main_lr_bound():
    c = base_consts()
    t = 2.0
    # with C1 = 1 and C2 = C0 + 4 the linear exponent only wins past a few
    # hundred sites; probe the decaying side of the turnover
    logs = [main_lr_bound(R, 1.0, t, c).log_value for R in (300.0, 1000.0, 3000.0)]
    assert logs[0] > logs[1] > logs[2]
    R = 50.0
    expect = (
        c.c0 * c.qbar
        - c.effective_C1 * (R - 1.0) / (t * math.log(R))
        + c.effective_C2 * math.log(R)
    )
    assert main_lr_bound(R, 1.0, t, c).log_value == pytest.approx(expect, rel=1e-12)
    assert not main_lr_bound(R, 1.0, 0.5, c).valid  # t < 1 flag
    for bad in ((1.0, 1.0, 2.0), (0.9, 0.0, 2.0), (50.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            main_lr_bound(*bad, c)


def test_lightcone_radius():
    c = base_consts()
    for t in (math.e, 5.0, 20.0):
        for delta in (1.0, 1e-2, 1e-5):
            R = lightcone_radius(t, delta, c)
            bv = main_lr_bound(R, 0.0, t, c)
            assert bv.log_value <= math.log(delta) + math.log(c.zeta0) + 1e-9
    assert lightcone_radius(5.0, 1e-6, c) > lightcone_radius(5.0, 1e-1, c)
    with pytest.raises(ValueError):
        lightcone_radius(2.0, 0.5, c)
    with pytest.raises(ValueError):
        lightcone_radius(5.0, 0.0, c)
    with pytest.raises(ValueError):
        lightcone_radius(5.0, 1.5, c)


def test_clustering_bound():
    c = base_consts()
    logs = [clustering_bound(R, 0.5, c).log_value for R in (10.0, 100.0, 1000.0)]
    assert logs[0] > logs[1] > logs[2]
    base = clustering_bound(50.0, 0.5, c)
    doubled = clustering_bound(50.0, 0.5, c, norm_X=2.0)
    assert doubled.log_value == pytest.approx(
        base.log_value + math.log(2.0), rel=1e-12
    )
    tiny_gap = clustering_bound(3.0, 1e-3, c)
    assert not tiny_gap.valid  # R below the (1/gap) log^3(1/gap) threshold
    with pytest.raises(ValueError):
        clustering_bound(2.0, 0.5, c)
    with pytest.raises(ValueError):
        clustering_bound(10.0, 0.0, c)


def test_quench_bounds():
    c = base_consts()
    t = 2.0
    errs = [
        quench_bounds(R, 1.0, t, c).error.log_value for R in (100.0, 400.0, 1600.0)
    ]
    assert errs[0] > errs[1] > errs[2]
    qb = quench_bounds(20.0, 1.0, t, c)
    assert qb.cost.log_value == pytest.approx(20.0 * math.log(20.0), rel=1e-12)
    eps = math.exp(-1.0)
    li = math.log(1.0 / eps)
    assert qb.cost_1d.log_value == pytest.approx(
        t * math.log(t) ** 3 + t * li * math.log(li) ** 2, rel=1e-12
    )
    # the decay constant is effective_C1 and the offset C0 + 2, two below main_lr's
    logR = math.log(20.0)
    direct = c.c0 * c.qbar - c.effective_C1 * 19.0 / (t * logR) + (c.C0 + 2.0) * logR
    assert qb.error.log_value == pytest.approx(direct, rel=1e-12)
    assert main_lr_bound(20.0, 1.0, t, c).log_value > qb.error.log_value
    with pytest.raises(ValueError):
        quench_bounds(20.0, 1.0, t, c, epsilon=1.0)
    with pytest.raises(ValueError):
        quench_bounds(1.0, 1.0, t, c)


def test_adjacency_exp_bound_chain():
    g = build_lattice("chain", [2])
    res = adjacency_exp_bound(g, 1.0, 0.5)
    assert res.spectral_norm == pytest.approx(1.0, rel=1e-12)
    assert res.v0 == pytest.approx(CHI / 2.0, rel=1e-12)
    expect = ADJACENCY_C * math.exp(res.v0 * 0.5 - 1.0)
    assert res.matrix[0, 1] == pytest.approx(expect, rel=1e-12)
    assert res.matrix[0, 0] == pytest.approx(
        ADJACENCY_C * math.exp(res.v0 * 0.5), rel=1e-12
    )
    with pytest.raises(ValueError):
        adjacency_exp_bound(g, 1.0, -0.1)
    with pytest.raises(ValueError):
        adjacency_exp_bound(g, -1.0, 0.1)


def test_adjacency_exp_bound_dominates_true_exponential():
    # entrywise |e^{tM}| <= C e^{v0 t - d} on a sample of small graphs
    from scipy.linalg import expm

    for kind, dims in (("chain", [8]), ("ring", [9]), ("grid", [3, 3])):
        g = build_lattice(kind, dims)
        n = g.site_count
        adj = np.zeros((n, n))
        for i, j in g.edges:
            adj[i, j] = adj[j, i] = 1.0
        for t in (0.1, 0.5, 1.0):
            res = adjacency_exp_bound(g, 1.0, t)
            true = np.abs(expm(t * adj))
            assert np.all(true <= res.matrix + 1e-12)


def test_fs_polynomials_exact():
    f1 = fs_polynomial(1)
    assert f1.coeffs == (Fraction(0), Fraction(1))
    f2 = fs_polynomial(2)
    assert f2.coeffs == (Fraction(0), Fraction(-1), Fraction(1))
    f4 = fs_polynomial(4)
    assert f4.coeffs == (
        Fraction(0),
        Fraction(0),
        Fraction(1),
        Fraction(-2),
        Fraction(1),
    )
    for s in range(1, 21):
        f = fs_polynomial(s)
        assert f(0) == 0
        # difference identity on a wide exact grid
        for x in range(0, 101):
            assert f(x + 1) - f(x) == s * Fraction(x) ** (s - 1)
        # summation form
        for m in range(1, 30):
            assert f(m) == s * sum(j ** (s - 1) for j in range(0, m))
    with pytest.raises(ValueError):
        fs_polynomial(0)
    with pytest.raises(ValueError):
        fs_polynomial(21)


def test_fs_lemma_check():
    # (m-1)^s <= f_s(m) <= m^s is fs-check's own check; the quarter
    # inequality f_s(m) + s^s/4 >= m^s/4 is checked here from f_s itself
    rows = fs_check_rows(10, 100)
    assert len(rows) == 10 * 100
    for row in rows:
        s, m = row["s"], row["m"]
        assert row["pass"] and row["lower"] == (m - 1) ** s <= row["f_s"] <= row["upper"] == m**s
        assert fs_polynomial(s)(m) + Fraction(s**s, 4) >= Fraction(m**s, 4)
