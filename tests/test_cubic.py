import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hemodelay import NumericalError, real_cubic_roots

import checks


def _poly(b1, b2, b3, z):
    return ((z + b1) * z + b2) * z + b3


def test_pure_cube():
    roots = real_cubic_roots(0.0, 0.0, -8.0)
    assert len(roots) == 1
    assert math.isclose(roots[0], 2.0, rel_tol=1e-12)


def test_three_distinct_roots_ascending():
    # (z-1)(z-2)(z-3)
    roots = real_cubic_roots(-6.0, 11.0, -6.0)
    assert len(roots) == 3
    for got, want in zip(roots, (1.0, 2.0, 3.0)):
        assert math.isclose(got, want, rel_tol=1e-10)


def test_single_real_root():
    # (z-1)(z^2+1): complex pair discarded
    roots = real_cubic_roots(-1.0, 1.0, -1.0)
    assert len(roots) == 1
    assert math.isclose(roots[0], 1.0, rel_tol=1e-12)


def test_double_root_collapsed():
    # (z-1)^2 (z-4) = z^3 - 6z^2 + 9z - 4
    roots = real_cubic_roots(-6.0, 9.0, -4.0)
    assert len(roots) == 2
    assert math.isclose(roots[0], 1.0, rel_tol=1e-6)
    assert math.isclose(roots[1], 4.0, rel_tol=1e-10)


def test_triple_root_collapsed():
    # (z-2)^3 = z^3 - 6z^2 + 12z - 8
    roots = real_cubic_roots(-6.0, 12.0, -8.0)
    assert len(roots) == 1
    assert math.isclose(roots[0], 2.0, rel_tol=1e-4)


def test_zero_root_retained():
    # z(z-3)(z+5) = z^3 + 2z^2 - 15z
    roots = real_cubic_roots(2.0, -15.0, 0.0)
    assert len(roots) == 3
    assert math.isclose(roots[0], -5.0, rel_tol=1e-12)
    assert abs(roots[1]) < 1e-12
    assert math.isclose(roots[2], 3.0, rel_tol=1e-12)


def test_nonfinite_coefficients_rejected():
    for b1, b2, b3 in [
        (math.nan, 0.0, 1.0), (-math.inf, 0.0, 1.0), (0.0, math.inf, 1.0),
        (0.0, 0.0, math.nan), (0.0, 0.0, math.inf), (0.0, 0.0, -math.inf),
    ]:
        with pytest.raises(ValueError):
            real_cubic_roots(b1, b2, b3)


def test_overflowing_square_is_a_numerical_error():
    # R * R overflows to inf without raising; the real root of the first is
    # 2.15e53, where an unchecked square gave [inf]
    for b2, b3 in [(0.0, -1e160), (0.0, 1e160), (-1e100, 1e160)]:
        with pytest.raises(NumericalError, match="overflows"):
            real_cubic_roots(0.0, b2, b3)


def test_matches_companion_matrix_oracle():
    rng = random.Random(31337)
    assert checks.cubic_oracle_max_err(rng) < 1e-8


coeff = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(b1=coeff, b2=coeff, b3=coeff)
def test_returned_roots_satisfy_cubic(b1, b2, b3):
    roots = real_cubic_roots(b1, b2, b3)
    assert roots == sorted(roots)
    assert len(roots) <= 3
    scale = max(1.0, abs(b1), abs(b2), abs(b3))
    for z in roots:
        assert abs(_poly(b1, b2, b3, z)) <= 1e-7 * scale * (1.0 + abs(z)) ** 3


@given(r1=coeff, r2=coeff, r3=coeff)
def test_recovers_constructed_roots(r1, r2, r3):
    rs = (r1, r2, r3)
    b1 = -(r1 + r2 + r3)
    b2 = r1 * r2 + r1 * r3 + r2 * r3
    b3 = -r1 * r2 * r3
    roots = real_cubic_roots(b1, b2, b3)
    spread = max(1.0, abs(r1), abs(r2), abs(r3))
    for i, r in enumerate(rs):
        sep = min(abs(r - x) for j, x in enumerate(rs) if j != i)
        if sep <= 1e-3 * spread:
            # clustered roots can round into a complex pair; the exact
            # double/triple cases are pinned by the deterministic tests
            continue
        nearest = min(abs(r - z) for z in roots)
        assert nearest <= 1e-7 * spread, (r, roots)


# the coefficient triples of the deterministic tests above, refusals included
DETERMINISTIC = [
    (0.0, 0.0, -8.0), (-6.0, 11.0, -6.0), (-1.0, 1.0, -1.0), (-6.0, 9.0, -4.0),
    (-6.0, 12.0, -8.0), (2.0, -15.0, 0.0),
    (math.nan, 0.0, 1.0), (-math.inf, 0.0, 1.0), (0.0, math.inf, 1.0),
    (0.0, 0.0, math.nan), (0.0, 0.0, math.inf), (0.0, 0.0, -math.inf),
    (0.0, 0.0, -1e160), (0.0, 0.0, 1e160), (0.0, -1e100, 1e160),
]


def _outcome(fn, b):
    try:
        return repr(fn(*b))
    except (ValueError, NumericalError) as exc:
        return type(exc).__name__


def _assert_matches_composed(triples):
    for b in triples:
        assert _outcome(real_cubic_roots, b) == _outcome(checks.composed_cubic_roots, b), b


def test_written_out_polish_matches_composed_on_seeded_triples():
    rng = random.Random(3501)
    mag = lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)  # noqa: E731
    _assert_matches_composed([(mag(), mag(), mag()) for _ in range(20_000)])


def test_written_out_polish_matches_composed_on_fixed_cases():
    _assert_matches_composed(DETERMINISTIC)


def test_written_out_polish_matches_composed_on_the_reference_grid(params, default_grid):
    triples = [(cc.b1, cc.b2, cc.b3) for cc in (checks.coeffs_at(params, t) for t in default_grid)]
    assert len(triples) == 598
    _assert_matches_composed(triples)


@pytest.mark.parametrize(
    "b, branch",
    [
        # (z-2)^3: h' vanishes at each of the three Cardano roots
        ((-6.0, 12.0, -8.0), "d"),
        # z^2 (z+1): the deflated quadratic's q is 0, where h' is 0 too
        ((1.0, 0.0, 0.0), "q == 0"),
        ((1.0, 0.0, 0.0), "d"),
        # (z-1)(z^2+1): the deflated quadratic has no real root
        ((-1.0, 1.0, -1.0), "disc < 0"),
        # (z-1)^2 (z-1.00001): the step from one computed root worsens |h|
        ((-3.00001, 3.00002, -1.00001), "worse"),
    ],
)
def test_written_out_polish_matches_composed_on_each_branch(b, branch):
    # the polish's third refusal, a non-finite step h/d, has no input here:
    # no finite triple is known to reach it, and over 10^6 random triples
    # with magnitudes 10^-320 to 10^300, zeros and subnormals included, none did
    path = []
    checks.composed_cubic_roots(*b, path=path)
    assert branch in path, path
    _assert_matches_composed([b])
