import cmath
import dataclasses
import decimal
import fractions
import hashlib
import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hemodelay import (
    CharCoeffs,
    DegenerateDenominatorError,
    Equilibrium,
    HillRates,
    LinCoeffs,
    ModelParams,
    NumericalError,
    OmegaRoot,
    SystemState,
    char_coeffs,
    char_residual,
    default_params,
    integrate,
    linearize,
    positive_equilibrium,
    positive_root_intervals,
    positive_roots_h,
    scaled_equilibrium_history,
    scan,
    sn_value,
    tau_max,
    theta,
    trivial_equilibrium,
)
from hemodelay import cli, equilibria, switch
from hemodelay.switch import (
    SwitchReport,
    _assemble_partition,
    _coeffs_at,
    _mark_simultaneous,
    _refine_crossing,
)

import checks


def _h(b1, b2, b3, z):
    return ((z + b1) * z + b2) * z + b3


def _pq(cc, omega):
    lam = 1j * omega
    p = ((lam + cc.a1) * lam + cc.a2) * lam + cc.a3
    q = (cc.a4 * lam + cc.a5) * lam + cc.a6
    return p, q


class TestPositiveRootsH:
    def test_pure_cube_root(self):
        roots = positive_roots_h(checks.synthetic_b_coeffs(0.0, 0.0, -8.0))
        assert len(roots) == 1
        assert math.isclose(roots[0].z, 2.0, rel_tol=1e-12)
        assert math.isclose(roots[0].omega, math.sqrt(2.0), rel_tol=1e-12)
        assert roots[0].dh_sign == 1

    def test_no_roots_for_all_positive_coefficients(self):
        assert positive_roots_h(checks.synthetic_b_coeffs(1.0, 1.0, 1.0)) == []

    def test_single_root_inside_window(self, params):
        cc = checks.coeffs_at(params, 1.0)
        roots = positive_roots_h(cc)
        assert len(roots) == 1
        assert roots[0].dh_sign == 1
        assert abs(_h(cc.b1, cc.b2, cc.b3, roots[0].z)) < 1e-9 * (1.0 + abs(cc.b3))
        assert 0.0 < roots[0].omega < 1.0

    def test_descending_order_and_tags(self):
        # (z-1)(z-2)(z-3): all three positive
        roots = positive_roots_h(checks.synthetic_b_coeffs(-6.0, 11.0, -6.0))
        assert [round(r.z) for r in roots] == [3, 2, 1]
        assert [r.dh_sign for r in roots] == [1, -1, 1]

    @given(
        b1=st.floats(-10, 10),
        b2=st.floats(-10, 10),
        b3=st.floats(-10, 10),
    )
    def test_matches_direct_criterion(self, b1, b2, b3):
        """Implementation gate vs a direct transcription of the root criterion."""
        delta = b1 * b1 - 3.0 * b2
        if b3 < 0.0:
            expected = True
        elif delta < 0.0:
            expected = False
        else:
            z0 = (-b1 + math.sqrt(delta)) / 3.0
            expected = z0 > 0.0 and _h(b1, b2, b3, z0) < 0.0
        # stay away from the criterion's boundaries, where the two forms
        # may legitimately round to different sides
        assume(abs(b3) > 1e-6)
        assume(abs(delta) > 1e-6)
        if delta > 0.0:
            z0 = (-b1 + math.sqrt(delta)) / 3.0
            assume(abs(z0) > 1e-6)
            assume(abs(_h(b1, b2, b3, z0)) > 1e-6)
        roots = positive_roots_h(checks.synthetic_b_coeffs(b1, b2, b3))
        assert bool(roots) == expected
        for r in roots:
            assert r.z > 0.0
            assert math.isclose(r.omega, math.sqrt(r.z), rel_tol=1e-15)

    def test_criterion_and_extraction_must_agree(self, monkeypatch):
        # b3 < 0 means a positive root; an extraction that finds none is refused
        monkeypatch.setattr(switch, "real_cubic_roots", lambda b1, b2, b3: [])
        with pytest.raises(NumericalError, match="root criterion says True but extraction found 0"):
            positive_roots_h(checks.synthetic_b_coeffs(0.0, 0.0, -8.0))


class TestTheta:
    @pytest.mark.parametrize("tau", [0.2, 1.0, 2.0, 2.8])
    def test_complex_identity_at_roots(self, params, tau):
        cc = checks.coeffs_at(params, tau)
        for root in positive_roots_h(cc):
            th = theta(cc, root.omega)
            assert 0.0 <= th < 2.0 * math.pi
            p, q = _pq(cc, root.omega)
            ratio = p / q
            # on the resonance set |P| = |Q| and exp(-i*theta) = -P/Q
            assert abs(abs(ratio) - 1.0) < 1e-9
            assert abs(cmath.exp(-1j * th) + ratio) < 1e-9
            assert abs(math.cos(th) + ratio.real) < 1e-9
            assert abs(math.sin(th) - ratio.imag) < 1e-9

    def test_atan2_convention_on_negative_axis(self):
        cc = CharCoeffs(
            a1=0.0, a2=0.0, a3=1.0, a4=0.0, a5=0.0, a6=1.0,
            b1=0.0, b2=0.0, b3=0.0, tau=0.0,
        )
        assert theta(cc, 0.0) == math.pi

    def test_degenerate_denominator(self):
        cc = checks.synthetic_b_coeffs(0.0, 0.0, -8.0)
        with pytest.raises(DegenerateDenominatorError):
            theta(cc, math.sqrt(2.0))
        assert issubclass(DegenerateDenominatorError, NumericalError)


class TestSnValue:
    def test_negative_at_zero_delay(self, params):
        for n in range(4):
            s = sn_value(params, 0.0, n, 0)
            assert s is not None and s < 0.0

    def test_adjacent_curves_differ_by_full_turn(self, params):
        tau = 1.0
        omega = positive_roots_h(checks.coeffs_at(params, tau))[0].omega
        s0 = sn_value(params, tau, 0, 0)
        s1 = sn_value(params, tau, 1, 0)
        assert math.isclose(s0 - s1, 2.0 * math.pi / omega, rel_tol=1e-12)

    def test_undefined_outside_root_window(self, params):
        assert sn_value(params, 2.95, 0, 0) is None

    def test_undefined_on_missing_branch(self, params):
        assert sn_value(params, 1.0, 0, 1) is None

    def test_undefined_past_existence_threshold(self, params):
        assert sn_value(params, tau_max(params) + 0.5, 0, 0) is None

    def test_rejects_negative_indices(self, params):
        with pytest.raises(ValueError):
            sn_value(params, 1.0, -1, 0)
        with pytest.raises(ValueError):
            sn_value(params, 1.0, 0, -1)


class TestOmegaBranch:
    def test_window_interior_and_exterior(self, params):
        inside = positive_roots_h(checks.coeffs_at(params, 1.5))
        assert len(inside) == 1
        outside = positive_roots_h(checks.coeffs_at(params, 2.95))
        assert outside == []

    def test_root_residuals_and_order(self, params):
        for tau in (0.5, 1.5, 2.5):
            cc = checks.coeffs_at(params, tau)
            roots = positive_roots_h(cc)
            assert len(roots) <= 3
            zs = [r.z for r in roots]
            assert zs == sorted(zs, reverse=True)
            for r in roots:
                assert abs(_h(cc.b1, cc.b2, cc.b3, r.z)) < 1e-9 * (1.0 + abs(cc.b3))


class TestCharResidual:
    def test_zero_lambda_is_a3_plus_a6(self, params):
        cc = checks.coeffs_at(params, 1.0)
        value = char_residual(cc, 0j, 1.0)
        assert value.imag == 0.0
        assert value.real == cc.a3 + cc.a6
        assert value.real > 0.0

    def test_conjugate_symmetry(self, params):
        cc = checks.coeffs_at(params, 1.4)
        rng = random.Random(404)
        for _ in range(100):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = char_residual(cc, lam.conjugate(), 1.4)
            b = char_residual(cc, lam, 1.4).conjugate()
            assert abs(a - b) <= 1e-13 * (1.0 + abs(b))

    def test_trivial_equilibrium_factorization(self, params):
        import dataclasses

        tau = 0.7
        p = dataclasses.replace(params, tau=tau)
        lin = linearize(p, trivial_equilibrium(p), tau)
        cc = char_coeffs(lin, p.mu, p.k)
        rng = random.Random(10301)
        for _ in range(20):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            lhs = char_residual(cc, lam, tau)
            rhs = (
                (lam + p.mu)
                * (lam + p.k)
                * (lam + lin.A - lin.B * cmath.exp(-lam * tau))
            )
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.fixture(scope="module")
def perturbed_scans():
    """scan(p, its CLI grid, 2) on the 20 sets checks.perturbed_params(0..19)."""
    return [scan(p, checks.cli_grid(p), 2) for p in map(checks.perturbed_params, range(20))]


class TestScan:
    def test_exactly_two_refined_crossings(self, scan_result):
        reports = scan_result.reports
        assert len(reports) == 2
        assert all(r.refined for r in reports)
        first, second = reports
        assert first.direction == "destabilizing" and first.transversality == 1
        assert second.direction == "stabilizing" and second.transversality == -1

    def test_crossings_match_reference(self, scan_result):
        first, second = scan_result.reports
        assert abs(first.tau_star - checks.TAU_STAR_1) < 1e-8
        assert abs(first.omega_star - checks.OMEGA_STAR_1) < 1e-8
        assert abs(second.tau_star - checks.TAU_STAR_2) < 1e-8
        assert abs(second.omega_star - checks.OMEGA_STAR_2) < 1e-8

    def test_s1_has_no_roots(self, scan_result):
        s1 = [c for c in scan_result.curves if c.n == 1]
        assert s1 and all(c.roots == () for c in s1)
        assert all(v < 0.0 for c in s1 for _, v in c.samples)

    def test_sn_vanishes_at_refined_roots(self, params, scan_result):
        for r in scan_result.reports:
            s = sn_value(params, r.tau_star, r.n, r.branch)
            assert s is not None and abs(s) < 1e-10

    def test_residuals_from_independent_evaluation(self, params, scan_result):
        for r in scan_result.reports:
            assert r.residual < 1e-8
            cc = checks.coeffs_at(params, r.tau_star)
            direct = abs(char_residual(cc, 1j * r.omega_star, r.tau_star))
            assert direct < 1e-8

    def test_branch_identity(self, params, scan_result):
        for r in scan_result.reports:
            roots = positive_roots_h(checks.coeffs_at(params, r.tau_star))
            assert min(abs(r.omega_star - root.omega) for root in roots) < 1e-8

    def test_partition_tiles_the_existence_range(self, params, scan_result):
        part = scan_result.partition
        assert [v for _, _, v in part] == ["stable", "unstable", "stable"]
        assert part[0][0] == 0.0
        assert part[-1][1] == tau_max(params)
        for (_, hi, _), (lo, _, _) in zip(part, part[1:]):
            assert hi == lo
        tau_stars = [r.tau_star for r in scan_result.reports]
        assert [part[0][1], part[1][1]] == tau_stars

    def test_sn_curves_monotone_in_n(self, scan_result):
        assert checks.sn_ordering_violations(scan_result) == 0

    def test_curves_stay_inside_root_window(self, scan_result):
        for c in scan_result.curves:
            assert all(t < checks.ROOT_WINDOW_EDGE + 1e-6 for t, _ in c.samples)

    def test_coarser_grid_same_crossings(self, params, default_grid, scan_result):
        coarse = checks.cli_grid(params, step=0.01)
        res = scan(params, coarse, 1)
        fine = [r.tau_star for r in scan_result.reports]
        got = [r.tau_star for r in res.reports]
        assert len(got) == 2
        assert max(abs(a - b) for a, b in zip(fine, got)) < 0.01

    def test_higher_n_adds_no_crossings(self, params, default_grid, scan_result):
        res = scan(params, default_grid, 2)
        assert len(res.reports) == 2
        s2 = [c for c in res.curves if c.n == 2]
        assert s2 and all(c.roots == () for c in s2)

    def test_same_result_from_cold_and_warm_memo(self, params, default_grid):
        # cold: the last solve and coefficient build were for another
        # parameter set; warm: every grid delay already solved and built
        sn_value(default_params(tau=1.0), 0.0, 0, 0)
        cold = repr((positive_root_intervals(params, default_grid), scan(params, default_grid, 1)))
        for tau in default_grid:
            positive_equilibrium(params, tau)
        warm = repr((positive_root_intervals(params, default_grid), scan(params, default_grid, 1)))
        assert cold == warm

    def test_reports_pinned_on_perturbed_sets(self, perturbed_scans):
        # sha256 of every report field on 20 seeded sets, each on its CLI
        # grid; switches.csv pins the reference set only
        rows = [
            [(r.tau_star, r.omega_star, r.transversality, r.direction, r.residual, r.refined)
             for r in result.reports]
            for result in perturbed_scans
        ]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "506f1f7dff969dfcde9fa083992428951655c3a67d211f99c4083c19cbbb1b2f"

    def test_sn_samples_pinned_on_perturbed_sets(self, perturbed_scans):
        # sha256 of every S_n sample of the same 20 scans: the pin that moves
        # if the cubic, theta or a coefficient changes any omega on the grid;
        # s0_curve.csv and s1_curve.csv pin the reference set only
        rows = [[c.samples for c in result.curves] for result in perturbed_scans]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "1622cd3220320bce60b3c2894d8ca01a8f82bbc5ef35e468506b4c408324ca75"

    def test_grid_validation(self, params, default_grid):
        with pytest.raises(ValueError):
            scan(params, default_grid, 0)
        with pytest.raises(ValueError):
            scan(params, [0.0], 1)
        with pytest.raises(ValueError):
            scan(params, [0.5 + 0.005 * i for i in range(400)], 1)
        with pytest.raises(ValueError):
            scan(params, [0.2 * i for i in range(15)], 1)
        with pytest.raises(ValueError):
            scan(params, [0.005 * i for i in range(300)], 1)  # stops at 1.5
        with pytest.raises(ValueError):
            scan(params, [0.01 * i for i in range(302)], 1)  # passes tau_max

    def test_too_many_sn_samples_are_refused_before_any_build(self, params, default_grid, monkeypatch):
        # (n_max + 1) * len(grid) past 1,000,000 is refused from the count,
        # ahead of the grid checks; the default grid has 598 points
        def no_build(*args, **kwargs):
            raise NumericalError("coefficients built")

        monkeypatch.setattr(switch, "_coeffs_at", no_build)
        assert len(default_grid) == 598
        for grid, n_max in ((default_grid, 1672), ([0.0], 10**6), ([0.5, 0.0], 10**30)):
            with pytest.raises(ValueError, match="S_n points .* at most 1000000 are allowed"):
                scan(params, grid, n_max)
        with pytest.raises(NumericalError, match="coefficients built"):
            scan(params, default_grid, 1671)

    def test_grid_refusals_name_their_cause(self, params):
        with pytest.raises(ValueError, match="strictly increasing"):
            scan(params, [0.0, 0.01, 0.01, 0.02], 1)
        rootless = dataclasses.replace(params, rates=dataclasses.replace(params.rates, beta0=0.01))
        with pytest.raises(ValueError, match="no positive steady state exists at any delay"):
            scan(rootless, [0.0, 0.01], 1)


def _report(tau_star: float, transversality: int) -> SwitchReport:
    direction = "destabilizing" if transversality > 0 else "stabilizing"
    return SwitchReport(tau_star, 0.1, 0, 0, transversality, direction, 0.0, True)


class TestPartitionAssembly:
    """The partition paths that the reference and perturbed scans never reach."""

    def test_crossings_within_1e8_are_unclassified(self):
        reports = [_report(1.0, 1), _report(1.0 + 5e-9, -1), _report(2.0, 1)]
        marked = _mark_simultaneous(reports)
        assert [r.direction for r in marked] == ["unclassified", "unclassified", "destabilizing"]
        assert [r.transversality for r in marked] == [1, -1, 1]
        assert [r.tau_star for r in marked] == [r.tau_star for r in reports]

    def test_every_piece_after_an_unclassified_crossing_is_unclassified(self, params, default_grid):
        reports = _mark_simultaneous([_report(1.0, 1), _report(1.0 + 5e-9, -1), _report(2.0, 1)])
        part = _assemble_partition(params, default_grid, reports)
        assert part == (
            (0.0, 1.0, "stable"),
            (1.0, 1.0 + 5e-9, "unclassified"),
            (1.0 + 5e-9, 2.0, "unclassified"),
            (2.0, tau_max(params), "unclassified"),
        )

    def test_stabilizing_crossing_first_is_a_numerical_error(self, params, default_grid):
        with pytest.raises(NumericalError, match="more stabilizing than destabilizing"):
            _assemble_partition(params, default_grid, [_report(1.0, -1), _report(2.0, 1)])


class TestRefineCrossing:
    """The branch-edge path, on a synthetic S_n that is undefined from `edge` on."""

    @staticmethod
    def fake_sn(monkeypatch, s, edge):
        monkeypatch.setattr(
            "hemodelay.switch.sn_value", lambda p, t, n, branch: s(t) if t < edge else None
        )

    def test_sign_change_before_the_edge_is_refined(self, params, monkeypatch):
        # the first midpoint 0.5 lies past the edge: the bracket shrinks to
        # the edge, where S > 0, and the bisection goes on to the root
        self.fake_sn(monkeypatch, lambda t: t - 0.3, 0.4)
        tau, refined = _refine_crossing(params, 0, 0, 0.0, 1.0, -0.3)
        assert refined
        assert abs(tau - 0.3) < 1e-10

    def test_sign_change_beyond_the_edge_is_unrefined(self, params, monkeypatch):
        # S(0.5) = -0.4 is the best sample; at the edge S is still negative
        self.fake_sn(monkeypatch, lambda t: t - 0.9, 0.6)
        assert _refine_crossing(params, 0, 0, 0.0, 1.0, -0.9) == (0.5, False)

    def test_jump_before_the_edge_ends_at_adjacent_floats(self, params, monkeypatch):
        # a sign change without a zero: the bisection stops when the midpoint
        # rounds to an end, and no sample came within 1e-10 of zero
        self.fake_sn(monkeypatch, lambda t: -1.0 if t < 0.3 else 1.0, 0.4)
        assert _refine_crossing(params, 0, 0, 0.0, 1.0, -1.0) == (0.0, False)

    def test_low_end_within_tolerance_is_the_crossing(self, params, monkeypatch):
        # S at the low end is already within 1e-10 of zero: no sample is taken,
        # where bisecting this S, which never nears zero, would end unrefined
        self.fake_sn(monkeypatch, lambda t: 1.0, 2.0)
        assert _refine_crossing(params, 0, 0, 0.3, 1.0, 1e-11) == (0.3, True)


class TestCoefficientMemo:
    """_coeffs_at builds each delay's coefficients once per parameter set, by
    the equilibrium memo's rule, through switch.positive_equilibrium,
    switch.linearize and switch.char_coeffs as looked up at call time."""

    @staticmethod
    def count_builds(monkeypatch):
        """Recording wrappers on the three switch attributes: {name: [repr(tau), ...]}."""
        delay_of = {
            "positive_equilibrium": lambda p, tau: tau,
            "linearize": lambda p, eq, tau: tau,
            "char_coeffs": lambda lin, mu, k: lin.tau,
        }
        seen = {name: [] for name in delay_of}
        for name, delay in delay_of.items():
            def recorded(*args, _fn=getattr(switch, name), _delay=delay, _taus=seen[name]):
                _taus.append(repr(_delay(*args)))
                return _fn(*args)
            monkeypatch.setattr(switch, name, recorded)
        return seen

    def test_each_delay_is_built_once(self, params, default_grid, monkeypatch):
        sn_value(default_params(tau=1.0), 0.0, 0, 0)  # another set's tables
        seen = self.count_builds(monkeypatch)
        intervals = positive_root_intervals(params, default_grid)
        result = scan(params, default_grid, 1)
        built = seen["char_coeffs"]
        assert len(built) > len(default_grid)
        assert len(set(built)) == len(built)
        assert seen["positive_equilibrium"] == seen["linearize"] == built
        # an == but distinct parameter set builds the same delays again, into
        # its own table, with equal results
        first = list(built)
        built.clear()
        same = dataclasses.replace(params)
        assert same is not params
        assert positive_root_intervals(same, default_grid) == intervals
        assert scan(same, default_grid, 1) == result
        assert built == first
        assert switch._coeff_memo.params is same

    def test_second_scan_calls_beta_at_most_twice(self, default_grid, monkeypatch):
        # a deterministic stand-in for a timing: the second scan reads every
        # coefficient from the memo, and only tau_max evaluates beta (twice);
        # counted on the class
        calls = [0]

        def counted(self, Q, E, _beta=HillRates.beta):
            calls[0] += 1
            return _beta(self, Q, E)

        monkeypatch.setattr(HillRates, "beta", counted)
        p = default_params()
        first = scan(p, default_grid, 1)
        before = calls[0]
        assert scan(p, default_grid, 1) == first
        assert calls[0] - before <= 2, calls[0] - before

    def test_signed_zeros_share_a_build(self, params):
        # every spelling of zero reads the one build at the delay 0.0
        built = [_coeffs_at(params, tau) for tau in (0, 0.0, -0.0, False)]
        assert all(cc is built[0] for cc in built)
        assert repr(built[0].tau) == "0.0"
        assert repr(switch.linear_coeffs(params, -0.0)[0].tau) == "0.0"

    def test_delay_is_checked_before_the_lookup(self, params):
        # 1 reads 1.0's build, and a number of another type that equals a
        # stored delay is refused as positive_equilibrium refuses it
        built = switch.linear_coeffs(params, 1.0)
        assert switch.linear_coeffs(params, 1) is built
        for tau in (decimal.Decimal(1), fractions.Fraction(1)):
            with pytest.raises(ValueError, match="float range"):
                switch.linear_coeffs(params, tau)
            with pytest.raises(ValueError, match="float range"):
                sn_value(params, tau, 0, 0)

    @staticmethod
    def rising_feedback(monkeypatch):
        """A fresh coefficient memo whose builds flip the sign of H, as an f'
        with the wrong sign would, and with it a3 + a6 = alpha*G*H*beta_E*Q:
        a root at the origin."""
        def flipped(p, eq, tau, _linearize=switch.linearize):
            lc = _linearize(p, eq, tau)
            return lc._replace(H=-lc.H)

        monkeypatch.setattr(switch, "_coeff_memo", equilibria.ParamsMemo())
        monkeypatch.setattr(switch, "linearize", flipped)

    def test_numerical_error_is_raised_on_every_call(self, monkeypatch):
        p = default_params()
        self.rising_feedback(monkeypatch)
        seen = self.count_builds(monkeypatch)
        for _ in range(2):
            with pytest.raises(NumericalError, match=r"a3\+a6"):
                sn_value(p, 1.0, 0, 0)
        assert seen["char_coeffs"] == ["1.0"]
        # the coeffs command still writes the row: only _coeffs_at refuses it
        ((lc, cc),) = cli._coefficients(p, [1.0])
        assert lc.tau == 1.0 and not cc.a3 + cc.a6 > 0.0
        with pytest.raises(NumericalError, match=r"a3\+a6"):
            sn_value(p, 1.0, 0, 0)
        assert seen["char_coeffs"] == ["1.0"]

    @pytest.mark.parametrize("r", [7.0, 5.0])
    def test_refused_build_is_kept_once_per_set(self, monkeypatch, r):
        # a root at the origin is refused by _coeffs_at on every call, while
        # linear_coeffs keeps the one build it refuses
        rates = dataclasses.replace(default_params().rates, r=r)
        p = dataclasses.replace(default_params(), rates=rates)
        self.rising_feedback(monkeypatch)
        seen = self.count_builds(monkeypatch)
        for _ in range(3):
            with pytest.raises(NumericalError, match=r"a3\+a6"):
                sn_value(p, 1.0, 0, 0)
        built = switch.linear_coeffs(p, 1.0)
        assert switch.linear_coeffs(p, 1.0) is built
        assert not built[1].a3 + built[1].a6 > 0.0
        assert seen["char_coeffs"] == seen["positive_equilibrium"] == ["1.0"]

    def test_nan_delay_is_never_stored(self, params, monkeypatch):
        # both users of ParamsMemo refuse a NaN delay before they put; from
        # empty memos, one build fills both with params' tables
        monkeypatch.setattr(equilibria, "_memo", equilibria.ParamsMemo(equilibria._set_constants))
        monkeypatch.setattr(switch, "_coeff_memo", equilibria.ParamsMemo())
        sn_value(params, 1.0, 0, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            switch.linear_coeffs(params, math.nan)
        with pytest.raises(ValueError, match="nonnegative"):
            sn_value(params, math.nan, 0, 0)
        for memo in (equilibria._memo, switch._coeff_memo):
            assert memo.params is params and memo.table
            assert not any(math.isnan(t) for t in memo.table), list(memo.table)

    def test_coefficient_rows_share_the_build(self, params, default_grid, monkeypatch):
        # the CLI's coeffs.csv rows fill the memo that the root window reads,
        # which then builds only its bisection midpoints
        sn_value(default_params(tau=1.0), 0.0, 0, 0)  # another set's tables
        seen = self.count_builds(monkeypatch)
        grid = list(map(repr, default_grid))
        built = cli._coefficients(params, default_grid)
        assert [repr(lc.tau) for lc, _ in built] == seen["char_coeffs"] == grid
        seen["char_coeffs"].clear()
        positive_root_intervals(params, default_grid)
        assert seen["char_coeffs"] and set(seen["char_coeffs"]).isdisjoint(grid)
        built = switch.linear_coeffs(params, default_grid[7])
        assert built[0].tau == default_grid[7] and built[1] is _coeffs_at(params, default_grid[7])


_E1, _E2, _E3 = 0.73217, 1.41421, 2.23607  # synthetic root-window edges, between grid points


class TestRootWindow:
    def test_single_interval_from_zero(self, params, default_grid):
        intervals = positive_root_intervals(params, default_grid)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == 0.0
        assert abs(hi - checks.ROOT_WINDOW_EDGE) < 1e-8

    @pytest.mark.parametrize(
        "alive, want",
        [
            (lambda t: _E1 < t < _E2, [("E1", "E2")]),  # dead start
            (lambda t: t > _E1, [("E1", "end")]),  # alive end
            (lambda t: t < _E1 or _E2 < t < _E3, [("start", "E1"), ("E2", "E3")]),
            (lambda t: False, []),
            (lambda t: True, [("start", "end")]),
        ],
        ids=["dead_start", "alive_end", "two_intervals", "none", "whole_grid"],
    )
    def test_intervals_from_synthetic_aliveness(self, monkeypatch, params, default_grid, alive, want):
        # aliveness as a function of tau alone, so the assembly of the
        # intervals from the grid flags and the refined edges is what is tested
        monkeypatch.setattr(switch, "_coeffs_at", lambda p, t: t)
        monkeypatch.setattr(switch, "_roots_criterion", alive)
        at = dict(E1=_E1, E2=_E2, E3=_E3, start=default_grid[0], end=default_grid[-1])
        got = positive_root_intervals(params, default_grid)
        assert len(got) == len(want), got
        for (lo, hi), (lo_name, hi_name) in zip(got, want):
            assert abs(lo - at[lo_name]) < 1e-10 and abs(hi - at[hi_name]) < 1e-10, (got, want)

    def test_b_signs_inside_window(self, params):
        for i in range(30):
            tau = 2.9 * i / 29.0
            cc = checks.coeffs_at(params, tau)
            assert cc.b2 > 0.0
            assert cc.b3 < 0.0

    def test_edge_is_the_sign_change_of_b3(self, params):
        inside = checks.coeffs_at(params, checks.ROOT_WINDOW_EDGE - 1e-6)
        outside = checks.coeffs_at(params, checks.ROOT_WINDOW_EDGE + 1e-6)
        for cc in (inside, outside):
            assert cc.b1 > 0.0 and cc.b2 > 0.0
        assert -2e-9 < inside.b3 < 0.0 < outside.b3 < 2e-9
        assert len(positive_roots_h(inside)) == 1
        assert positive_roots_h(outside) == []


def _newton_root(cc, tau, lam):
    """Root of P(lam) + Q(lam)*exp(-lam*tau) near lam, by Newton's method."""
    for _ in range(50):
        e = cmath.exp(-lam * tau)
        p = ((lam + cc.a1) * lam + cc.a2) * lam + cc.a3
        dp = (3.0 * lam + 2.0 * cc.a1) * lam + cc.a2
        q = (cc.a4 * lam + cc.a5) * lam + cc.a6
        dq = 2.0 * cc.a4 * lam + cc.a5
        step = (p + q * e) / (dp + (dq - tau * q) * e)
        lam -= step
        if abs(step) < 1e-14 * abs(lam):
            return lam
    pytest.fail(f"Newton did not converge at tau={tau!r}")


def test_transversality_matches_newton_roots(params):
    """Re(lambda) changes sign across each crossing as its direction says.

    The root is followed by Newton's method on the full characteristic
    equation, independently of h, theta and the S_n bracket whose sign the
    direction is read from.
    """
    checked = 0
    for p in [params] + [checks.perturbed_params(seed) for seed in range(7)]:
        for r in scan(p, checks.cli_grid(p), 1).reports:
            start = 1j * r.omega_star
            at = _newton_root(checks.coeffs_at(p, r.tau_star), r.tau_star, start)
            assert abs(at - start) < 1e-6
            below, above = (
                _newton_root(checks.coeffs_at(p, t), t, start).real
                for t in (r.tau_star - 1e-3, r.tau_star + 1e-3)
            )
            sign = {"destabilizing": 1.0, "stabilizing": -1.0}[r.direction]
            assert sign * below < 0.0 < sign * above
            checked += 1
    assert checked >= 10


def test_crossing_directions_match_simulations(scan_result, probe_runs):
    """Envelope ratios just below/above each switch agree with its direction."""
    for report in scan_result.reports:
        below = checks.growth_ratio(probe_runs[round(report.tau_star - 0.05, 4)])
        above = checks.growth_ratio(probe_runs[round(report.tau_star + 0.05, 4)])
        if report.direction == "destabilizing":
            assert below < 1.0 < above
        else:
            assert report.direction == "stabilizing"
            assert above < 1.0 < below


class TestSpectralOracle:
    """scan's verdicts against the pseudospectral roots of checks.spectral_roots,
    which shares no code with the h, theta and S_n machinery."""

    @staticmethod
    def rightmost(p, tau, n=30):
        q = dataclasses.replace(p, tau=tau)
        lin = linearize(q, positive_equilibrium(q, tau), tau)
        return checks.spectral_roots(lin, p.mu, p.k, n)[0]

    def test_rightmost_sign_matches_partition(self, params, scan_result):
        for i in range(13):
            tau = 0.2 + i * (2.95 - 0.2) / 12
            (verdict,) = [v for lo, hi, v in scan_result.partition if lo <= tau < hi]
            re = self.rightmost(params, tau).real
            assert (re < 0.0) == (verdict == "stable"), (tau, re, verdict)

    def test_switches_sit_on_the_imaginary_axis(self, params, scan_result):
        assert len(scan_result.reports) == 2
        for r in scan_result.reports:
            lam = self.rightmost(params, r.tau_star)
            assert abs(lam.real) <= 1e-9, (r.tau_star, lam)
            assert abs(abs(lam.imag) - r.omega_star) <= 1e-6, (r.tau_star, lam)

    def test_envelope_decays_at_the_rightmost_rate(self):
        # just below tau* = 1.3734 the rightmost pair decays slowly and the
        # rest fast, so log|Q - Q*| at its peaks falls on a line whose slope
        # is Re(lambda)
        tau = 1.36
        p = default_params(tau)
        eq = positive_equilibrium(p, tau)
        lam = self.rightmost(p, tau)
        traj = integrate(p, scaled_equilibrium_history(eq, 1.01), 1500.0, max_step=0.05)
        dev = [abs(q - eq.Q) for q in traj.Q]
        peaks = [
            (t, math.log(d))
            for t, d0, d, d1 in zip(traj.times[1:], dev, dev[1:], dev[2:])
            if d0 < d >= d1 and t > 200.0
        ]
        t_mean = sum(t for t, _ in peaks) / len(peaks)
        y_mean = sum(y for _, y in peaks) / len(peaks)
        slope = sum((t - t_mean) * (y - y_mean) for t, y in peaks) / sum(
            (t - t_mean) ** 2 for t, _ in peaks
        )
        assert len(peaks) >= 20
        assert lam.real < 0.0
        assert abs(slope - lam.real) <= 3e-5, (slope, lam)


class TestUnstableWithoutDelay:
    """Sets whose no-delay system is unstable, on 100-point grids, each piece
    checked against the spectral oracle at its midpoint.  The oracle runs at
    n = 60: the default 30 missed the rightmost root on one such set."""

    @staticmethod
    def scan_and_oracle(p):
        res = scan(p, checks.cli_grid(p, tau_max(p) / 100), 1)
        mids = [0.5 * (lo + hi) for lo, hi, _ in res.partition]
        return res, [TestSpectralOracle.rightmost(p, t, n=60).real for t in mids]

    def test_pair_count_starts_at_the_no_delay_verdict(self):
        # unstable at tau = 0, stabilized by one crossing
        p = ModelParams(0.002289, 9.231, 0.0, 0.005367, 0.2064,
                        HillRates(18.15, 0.6173, 499.7, 0.04899, 2.066))
        res, re = self.scan_and_oracle(p)
        (r,) = res.reports
        assert r.refined and r.direction == "stabilizing" and r.transversality == -1
        assert abs(r.tau_star - 0.07028) < 1e-5
        assert [v for *_, v in res.partition] == ["unstable", "stable"]
        assert re[0] > 0.0 > re[1], re

    def test_unrefined_crossing_is_unclassified(self):
        # S_0 changes sign near 0.0842 without a zero, and after it the count
        # is unknown: the oracle finds the last piece stable again
        p = ModelParams(0.01375, 2.13, 0.0, 1.319, 1.845,
                        HillRates(0.6075, 0.07103, 1998.0, 0.001074, 47.12))
        res, re = self.scan_and_oracle(p)
        first = res.reports[0]
        assert not first.refined and first.direction == "unclassified"
        assert abs(first.tau_star - 0.0842) < 1e-4
        assert res.partition[0][2] == "unstable" and re[0] > 0.0
        assert res.partition[0][1] == first.tau_star
        assert all(v == "unclassified" for *_, v in res.partition[1:])
        assert re[-1] < 0.0, re


def test_chain_records_are_frozen_named_tuples():
    # the records built per delay or per solve keep their fields, their
    # Name(field=value, ...) repr and their immutability as NamedTuples
    p, tau = default_params(), 2.0
    eq = positive_equilibrium(p, tau)
    lc = linearize(p, eq, tau)
    cc = char_coeffs(lc, p.mu, p.k)
    (root,) = positive_roots_h(cc)
    fields = {
        Equilibrium: ("kind", "Q", "M", "E", "tau"),
        LinCoeffs: ("A", "B", "C", "D", "G", "H", "tau"),
        CharCoeffs: ("a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "b3", "tau"),
        OmegaRoot: ("z", "omega", "dh_sign"),
    }
    for rec in (eq, lc, cc, root):
        cls = type(rec)
        assert cls._fields == fields[cls]
        body = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields[cls])
        assert repr(rec) == f"{cls.__name__}({body})"
        for f in fields[cls]:
            with pytest.raises(AttributeError):
                setattr(rec, f, 0.0)
    assert type(eq.state) is SystemState and eq.state == (eq.Q, eq.M, eq.E)
