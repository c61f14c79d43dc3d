import dataclasses
import math
import random

import pytest

from hemodelay import (
    HillRates,
    LinCoeffs,
    SystemState,
    char_coeffs,
    default_params,
    linearize,
    positive_equilibrium,
    rhs,
    routh_hurwitz_tau0,
    tau_max,
    trivial_equilibrium,
)
from hemodelay.cubic import cubic_prime, cubic_value

import checks


@pytest.mark.parametrize(
    "tau, a_ref, b_ref",
    [(0.0, checks.A_TAU0, checks.B_TAU0), (1.4, checks.A_TAU14, checks.B_TAU14)],
)
def test_char_coeffs_reference_values(params, tau, a_ref, b_ref):
    cc = checks.coeffs_at(params, tau)
    got_a = (cc.a1, cc.a2, cc.a3, cc.a4, cc.a5, cc.a6)
    for got, want in zip(got_a, a_ref):
        assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-15)
    for got, want in zip((cc.b1, cc.b2, cc.b3), b_ref):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15)


def test_hill_A_equals_B_with_closed_form(params):
    tm = tau_max(params)
    for i in range(20):
        tau = tm * i / 20.0
        p = dataclasses.replace(params, tau=tau)
        lin = linearize(p, positive_equilibrium(p, tau), tau)
        assert math.isclose(lin.A, lin.B, rel_tol=1e-12)
        alpha = 2.0 * math.exp(-p.gamma * tau) - 1.0
        want = (p.delta + params.rates.G) * (alpha + 1.0) / alpha
        assert math.isclose(lin.A, want, rel_tol=1e-10)


def test_b1_is_delay_independent(params):
    tm = tau_max(params)
    for i in range(20):
        cc = checks.coeffs_at(params, tm * i / 20.0)
        assert math.isclose(cc.b1, 7.8404, rel_tol=1e-12)
        assert math.isclose(cc.b1, params.mu**2 + params.k**2, rel_tol=1e-12)


def test_trivial_equilibrium_coefficients(params):
    for tau in (0.0, 1.0, 2.5):
        p = dataclasses.replace(params, tau=tau)
        eq = trivial_equilibrium(p)
        lin = linearize(p, eq, tau)
        b00 = p.rates.beta(0.0, eq.E)
        assert lin.C == 0.0 and lin.D == 0.0
        assert lin.A > 0.0 and lin.B > 0.0
        assert math.isclose(lin.B, 2.0 * math.exp(-p.gamma * tau) * b00, rel_tol=1e-12)
        assert math.isclose(lin.A, p.delta + p.rates.G + b00, rel_tol=1e-12)


def test_linearize_rejects_mismatched_tau(params):
    eq = positive_equilibrium(params, 0.0)
    with pytest.raises(ValueError):
        linearize(dataclasses.replace(params, tau=1.0), eq, 1.0)


def test_linearize_matches_numerical_jacobian():
    """A..H reproduce the two Jacobians of the vector field at the equilibrium."""
    tau = 1.0
    p = default_params(tau)
    eq = positive_equilibrium(p, tau)
    lin = linearize(p, eq, tau)
    instant = [
        [-lin.A, 0.0, -lin.C],
        [lin.G, -p.mu, 0.0],
        [0.0, -lin.H, -p.k],
    ]
    delayed = [
        [lin.B, 0.0, lin.D],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
    x = eq.state
    for col in range(3):
        h = 1e-6 * (1.0 + abs(x[col]))
        bump = [0.0, 0.0, 0.0]
        bump[col] = h

        up = SystemState(*(a + b for a, b in zip(x, bump)))
        dn = SystemState(*(a - b for a, b in zip(x, bump)))
        fd_now = [
            (u - d) / (2.0 * h) for u, d in zip(rhs(up, x, p), rhs(dn, x, p))
        ]
        fd_del = [
            (u - d) / (2.0 * h) for u, d in zip(rhs(x, up, p), rhs(x, dn, p))
        ]
        for row in range(3):
            assert math.isclose(
                fd_now[row], instant[row][col], rel_tol=1e-6, abs_tol=1e-6
            )
            assert math.isclose(
                fd_del[row], delayed[row][col], rel_tol=1e-6, abs_tol=1e-6
            )


def test_propa_at_tau_one(params):
    cc = checks.coeffs_at(params, 1.0)
    assert cc.a1 + cc.a4 > 0.0
    assert cc.a2 + cc.a5 > 0.0
    assert cc.a3 + cc.a6 > 0.0


def test_sign_invariants_across_grid(params):
    assert checks.coefficient_sign_violations(params) == []


def test_no_delay_term_degeneracy():
    lin = LinCoeffs(A=0.7, B=0.0, C=0.0, D=0.0, G=0.3, H=0.2, tau=0.0)
    cc = char_coeffs(lin, 0.5, 1.5)
    assert cc.a4 == 0.0 and cc.a5 == 0.0 and cc.a6 == 0.0


def test_h_identity_against_direct_complex_form(params):
    rng = random.Random(525600)
    assert checks.h_identity_max_err(params, rng) < 1e-9


def test_h_prime_is_derivative_of_h(params):
    cc = checks.coeffs_at(params, 1.0)
    for z in (0.01, 0.3, 1.7):
        step = 1e-6
        b = cc.b1, cc.b2, cc.b3
        fd = (cubic_value(*b, z + step) - cubic_value(*b, z - step)) / (2.0 * step)
        assert math.isclose(cubic_prime(cc.b1, cc.b2, z), fd, rel_tol=1e-7, abs_tol=1e-9)


class TestRouthHurwitz:
    def test_default_stable_at_zero_delay(self, params):
        assert routh_hurwitz_tau0(checks.coeffs_at(params, 0.0)) is True

    def test_rejects_nonzero_tau(self, params):
        with pytest.raises(ValueError):
            routh_hurwitz_tau0(checks.coeffs_at(params, 1.0))

    def test_zero_coupling_with_dominant_A(self):
        # GH(D-C) = 0 and A >= B leaves a positive margin
        lin = LinCoeffs(A=1.0, B=0.5, C=0.2, D=0.3, G=0.4, H=0.0, tau=0.0)
        assert routh_hurwitz_tau0(char_coeffs(lin, 0.02, 2.8)) is True

    def test_against_companion_matrix_oracle(self):
        rng = random.Random(777)
        assert checks.rh_oracle_mismatches(rng) == 0


class TestTranscriptionOracle:
    """char_coeffs against the characteristic equation, written out anew."""

    def test_char_residual_and_h_match_the_product_form(self):
        worst_char, worst_h = checks.transcription_max_errs(random.Random(8191))
        assert worst_char < 1e-12
        assert worst_h < 1e-12


class TestHayes:
    """The Hayes conditions on the extinction state's scalar equation agree
    with the transcritical claim: it is stable exactly when no positive
    equilibrium exists."""

    WEAK_REENTRY = HillRates(beta0=0.01, G=0.04, a=6570.0, K=0.0382, r=7.0)

    def verdicts(self, p, tau):
        """(Hayes says stable, no positive equilibrium) at `tau`."""
        q = dataclasses.replace(p, tau=tau)
        lin = linearize(q, trivial_equilibrium(q), tau)
        return checks.hayes_check(lin.A, lin.B, tau), positive_equilibrium(p, tau) is None

    def sets(self):
        ref = default_params()
        weak = dataclasses.replace(ref, rates=self.WEAK_REENTRY)
        return [ref, weak] + [checks.perturbed_params(seed) for seed in range(5)]

    def test_agrees_with_condition_verdict_when_stable(self):
        # past tau_max, and at every delay for a set without one
        checked = 0
        for p in self.sets():
            tm = tau_max(p)
            if tm is None:
                taus = [0.0, 0.5, 1.0, 2.0, 10.0]
            else:
                taus = [tm * x for x in (1.001, 1.01, 1.1, 1.5, 3.0)]
            for tau in taus:
                assert self.verdicts(p, tau) == (True, True), (p, tau)
                checked += 1
        assert checked == 35

    def test_agrees_with_condition_verdict_when_unstable(self):
        # below tau_max, where the positive equilibrium exists
        checked = 0
        for p in self.sets():
            tm = tau_max(p)
            for tau in [] if tm is None else [tm * x for x in (0.0, 0.1, 0.5, 0.9, 0.99, 0.999)]:
                assert self.verdicts(p, tau) == (False, False), (p, tau)
                checked += 1
        assert checked == 36

    def test_zero_delay_reduces_to_scalar_root(self):
        assert checks.hayes_check(1.0, 0.5, 0.0) is True  # root B - A = -0.5
        assert checks.hayes_check(0.5, 1.0, 0.0) is False

    def test_negative_x_branch(self):
        # A*tau in (-1, 0): delay-dominated but still within the stable lobe
        assert checks.hayes_check(-0.1, -0.5, 1.0) is True

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            checks.hayes_check(1.0, 0.5, -1.0)
        with pytest.raises(ValueError):
            checks.hayes_check(0.0, -0.5, 1.0)
