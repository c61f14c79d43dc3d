import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hemodelay import (
    HillRates,
    InvalidStateError,
    ModelParams,
    SystemState,
    default_params,
    positive_equilibrium,
    rhs,
    trivial_equilibrium,
)
from hemodelay.model import bisect_flip

import checks


def test_default_params_valid():
    # a set is checked when it is built, so building it again must pass
    for p in (default_params(), default_params(1.4)):
        assert dataclasses.replace(p) == p


def test_default_params_are_the_reference_set():
    assert default_params(1.4) == ModelParams(
        0.01, 0.2, 1.4, 0.02, 2.8, HillRates(0.5, 0.04, 6570.0, 0.0382, 7.0)
    )


def assert_refused_when_built(word, **changes):
    """The reference set with `changes` (ModelParams or HillRates fields) is
    refused with a ValueError naming `word`, whether it is built through the
    constructor or through dataclasses.replace."""
    ref = default_params(1.4)
    rate_names = {f.name for f in dataclasses.fields(HillRates)}
    rates = dataclasses.replace(ref.rates, **{n: v for n, v in changes.items() if n in rate_names})
    scalars = {n: v for n, v in changes.items() if n not in rate_names}
    for build in (
        lambda: ModelParams(**{**vars(ref), **scalars, "rates": rates}),
        lambda: dataclasses.replace(ref, **scalars, rates=rates),
    ):
        with pytest.raises(ValueError, match=rf"\b{word}\b"):
            build()


# every scalar outside the model's box, one at a time; the rate fields are in
# the tests below.  Unrefused, such a set reaches entry points that divide by
# zero (mu = 0, k = -1), return a negative tau_max (gamma = -0.1), an empty
# stability partition (mu = NaN) or a full answer off the box (delta = 0).
@pytest.mark.parametrize(
    "field, value, word",
    [
        ("mu", 0.0, "mu"),
        ("k", -1.0, "k"),
        ("delta", 0.0, "delta"),
        ("gamma", -0.1, "gamma"),
        ("tau", -1.0, "tau"),
        ("mu", math.nan, "finite"),
        ("delta", -math.inf, "delta"),
        ("gamma", math.inf, "finite"),
        ("k", 0.0, "k"),
        ("tau", math.inf, "finite"),
    ],
)
def test_validate_names_offending_scalar(field, value, word):
    assert_refused_when_built(word, **{field: value})


@pytest.mark.parametrize("r", [1.0, 0.5, 0.0])
def test_validate_rejects_shallow_hill_exponent(r):
    # unrefused, r = 1 and r = 0.5 get a full scan off the box
    assert_refused_when_built("r", r=r)


@pytest.mark.parametrize(
    "rates",
    [checks.DampedRates(), checks.CountingRates(**dataclasses.asdict(default_params().rates))],
    ids=["non-Hill rates", "HillRates subclass"],
)
def test_only_exact_hill_rates_are_accepted(rates):
    # the stepper and the residual write the Hill formulas out, so any other
    # rates type, a subclass that may override a rate included, is refused
    # where every entry point gets its parameters
    with pytest.raises(ValueError, match="rates must be HillRates"):
        dataclasses.replace(default_params(), rates=rates)
    with pytest.raises(ValueError, match="rates must be HillRates"):
        ModelParams(0.01, 0.2, 1.4, 0.02, 2.8, rates)


def test_validate_rejects_nonpositive_hill_scales():
    # K < 0 would make the equilibrium's closed-form root complex
    for field in ("beta0", "G", "a", "K"):
        assert_refused_when_built(field, **{field: 0.0})
    for field, value in (("beta0", -1.0), ("K", -0.0382), ("a", math.nan)):
        assert_refused_when_built(field, **{field: value})


@pytest.mark.parametrize("field", ["beta0", "G", "a", "K", "r"])
def test_validate_rejects_infinite_rates(field):
    # unrefused, K = inf gives a tau_max of 2.989 but no positive equilibrium
    # below it, and G = inf no tau_max
    assert_refused_when_built("finite", **{field: math.inf})


def test_every_violation_is_named_in_order():
    # delta, gamma, tau, mu, k and every rate field out of the box at once
    with pytest.raises(ValueError) as exc:
        ModelParams(0.0, -1.0, math.nan, 0.0, 0.0, HillRates(0.0, 0.0, 0.0, 0.0, 1.0))
    assert str(exc.value).split("; ") == [
        "delta must be positive",
        "gamma must be nonnegative",
        "mu must be positive",
        "k must be positive",
        "tau must be nonnegative",
        "scalar parameters must be finite",
        *(f"rate parameter {n} must be positive" for n in ("beta0", "G", "a", "K")),
        "rate parameter r must exceed 1",
    ]


def test_rhs_reference_value():
    p = default_params(1.0)
    out = rhs(SystemState(1.0, 1.0, 1.0), SystemState(1.0, 1.0, 1.0), p)
    for got, want in zip(out, checks.RHS_ONES_TAU1):
        assert math.isclose(got, want, rel_tol=1e-13)


def test_rhs_vanishes_at_equilibria():
    for tau in (0.0, 1.4, 2.8):
        p = default_params(tau)
        eq = positive_equilibrium(p, tau)
        out = rhs(eq.state, eq.state, p)
        scale = 1.0 + max(abs(v) for v in eq.state)
        assert max(abs(v) for v in out) < 1e-9 * scale

        triv = trivial_equilibrium(p).state
        out0 = rhs(triv, triv, p)
        assert max(abs(v) for v in out0) < 1e-9 * (1.0 + triv.E)


def test_rhs_rejects_nonfinite_state():
    p = default_params(1.0)
    good = SystemState(1.0, 1.0, 1.0)
    with pytest.raises(InvalidStateError):
        rhs(SystemState(math.nan, 1.0, 1.0), good, p)
    with pytest.raises(InvalidStateError):
        rhs(good, SystemState(1.0, math.inf, 1.0), p)


def test_hill_overflow_guards():
    r = default_params().rates
    assert r.f(1e60) == 0.0
    assert r.f_prime(1e60) == 0.0
    assert r.f_prime(0.0) == 0.0  # r > 1 kills the slope at the origin
    assert r.f_prime(-1.0) == 0.0  # no feedback below 0, as in f
    assert r.beta(5.0, 0.0) == 0.0


positive = st.floats(min_value=1e-3, max_value=1e3)


@given(Q=positive, E=positive)
def test_beta_derivatives_match_finite_differences(Q, E):
    r = default_params().rates
    h = 1e-6 * max(1.0, abs(E))
    fd = (r.beta(Q, E + h) - r.beta(Q, E - h)) / (2.0 * h)
    assert math.isclose(r.beta_dE(Q, E), fd, rel_tol=1e-5, abs_tol=1e-12)

    hq = 1e-6 * max(1.0, abs(Q))
    fdq = (r.beta(Q + hq, E) - r.beta(Q - hq, E)) / (2.0 * hq)
    assert abs(fdq) < 1e-12


@given(M=positive)
def test_f_and_g_derivatives_match_finite_differences(M):
    r = default_params().rates
    h = 1e-6 * max(1.0, abs(M))
    fd = (r.f(M + h) - r.f(M - h)) / (2.0 * h)
    # the difference of two near-equal f values carries eps*|f|/h of noise
    noise = 10.0 * 2.3e-16 * max(abs(r.f(M + h)), abs(r.f(M - h))) / h
    assert math.isclose(r.f_prime(M), fd, rel_tol=1e-5, abs_tol=max(1e-12, noise))
    fg = (r.g(M + h) - r.g(M - h)) / (2.0 * h)
    assert math.isclose(r.g_prime(M), fg, rel_tol=1e-5, abs_tol=1e-12)


@given(M1=positive, M2=positive)
def test_f_decreasing(M1, M2):
    r = default_params().rates
    lo, hi = sorted((M1, M2))
    if hi > lo:
        assert r.f(lo) >= r.f(hi)


@given(Q=positive, E1=positive, E2=positive)
def test_beta_increasing_in_E(Q, E1, E2):
    r = default_params().rates
    lo, hi = sorted((E1, E2))
    if hi > lo:
        assert r.beta(Q, lo) < r.beta(Q, hi)


class TestBisectFlip:
    def test_stops_at_adjacent_floats_when_the_ulp_exceeds_the_width(self):
        # the ulp at 16384 is 2**-38 (3.6e-12), above the 1e-12 width
        lo, hi = bisect_flip(lambda t: t < 16384.2, 16384.0, 16384.5, 1e-12)
        assert hi == math.nextafter(lo, math.inf)
        assert hi - lo > 1e-12
        assert lo < 16384.2 <= hi

    def test_default_width_runs_to_adjacent_floats(self):
        lo, hi = bisect_flip(lambda t: t < 0.3, 0.0, 1.0)
        assert hi == math.nextafter(lo, math.inf)
        assert lo < 0.3 <= hi

    def test_stops_at_the_width(self):
        lo, hi = bisect_flip(lambda t: t < 0.3, 0.0, 1.0, 1e-10)
        assert hi - lo <= 1e-10 < 2.0 * (hi - lo)
        assert lo < 0.3 <= hi

    @pytest.mark.parametrize("flip", [0.3, -1.0, 2.0])
    def test_never_evaluates_the_ends(self, flip):
        # flip outside [0, 1] drives the bracket onto one end
        seen = []

        def inside(t):
            seen.append(t)
            return t < flip

        bisect_flip(inside, 0.0, 1.0)
        assert seen and all(0.0 < t < 1.0 for t in seen)
