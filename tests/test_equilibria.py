import dataclasses
import decimal
import fractions
import hashlib
import math
import random

import pytest

from hemodelay import (
    HillRates,
    NumericalError,
    default_params,
    hill_equilibrium_closed_form,
    positive_equilibrium,
    tau_max,
    trivial_equilibrium,
)
from hemodelay import equilibria

import checks


def hill(beta0=0.5, G=0.04, a=6570.0, K=0.0382, r=7.0):
    return HillRates(beta0=beta0, G=G, a=a, K=K, r=r)


def with_rates(rates, **scalars):
    return dataclasses.replace(default_params(), rates=rates, **scalars)


def near_threshold_cases(n=800):
    """(params, tau) with every reference scalar scaled by U(0.5, 1.5), r in
    [2, 10], and tau = tau_max*(1 - u*1e-15): a few ulps below the threshold."""
    rng = random.Random(1509)
    ref = default_params()
    r = ref.rates
    cases = []
    while len(cases) < n:
        u = lambda: rng.uniform(0.5, 1.5)  # noqa: E731
        rates = hill(r.beta0 * u(), r.G * u(), r.a * u(), r.K * u(), rng.uniform(2.0, 10.0))
        p = with_rates(rates, delta=ref.delta * u(), gamma=ref.gamma * u(),
                       mu=ref.mu * u(), k=ref.k * u())
        tm = tau_max(p)
        if tm is not None:
            cases.append((p, tm * (1.0 - rng.random() * 1e-15)))
    return cases


class TestTauMax:
    def test_default_value(self, params):
        assert math.isclose(tau_max(params), checks.TAU_MAX_DEFAULT, rel_tol=1e-12)

    def test_beta0_doubled(self):
        p = with_rates(hill(beta0=1.0))
        assert math.isclose(tau_max(p), checks.TAU_MAX_BETA0_1, rel_tol=1e-12)

    def test_gamma_zero_gives_infinite_threshold(self):
        assert tau_max(with_rates(hill(), gamma=0.0)) == math.inf

    def test_threshold_failure_gives_none(self):
        # beta(0, f(0)/k) about 0.025, half of delta + g'(0) = 0.05
        weak = hill(beta0=0.025 * (1.0 + checks.TRIVIAL_E) / checks.TRIVIAL_E)
        assert tau_max(with_rates(weak)) is None
        # equality is also non-existence (strict inequality required): a = k
        # puts beta(0, f(0)/k) at beta0/2 = 0.25 = delta + G, all exact
        eq_rates = hill(beta0=0.5, G=0.125, a=2.8)
        assert tau_max(with_rates(eq_rates, delta=0.125, k=2.8)) is None

    def test_overflowing_reentry_rate_is_a_numerical_error(self):
        # beta(0, f(0)/k) overflows to inf, and log(inf/inf) would be nan
        p = with_rates(hill(beta0=1e300, a=1e300))
        with pytest.raises(NumericalError, match="not finite"):
            tau_max(p)
        with pytest.raises(NumericalError, match="not finite"):
            positive_equilibrium(p, 1.0)


class TestTrivialEquilibrium:
    def test_default(self, params):
        eq = trivial_equilibrium(params)
        assert eq.kind == "trivial"
        assert eq.Q == 0.0 and eq.M == 0.0
        assert eq.E == checks.TRIVIAL_E

    def test_constant_feedback_ratio(self):
        # with M = 0 the feedback is a, so E = a/k
        p = with_rates(hill(a=7.0), k=2.0)
        assert trivial_equilibrium(p).E == 3.5

    def test_a_equals_k_gives_unit_level(self):
        p = with_rates(hill(a=2.8), k=2.8)
        assert trivial_equilibrium(p).E == 1.0


class TestPositiveEquilibrium:
    @pytest.mark.parametrize(
        "tau, expected", [(0.0, checks.EQ_TAU0), (1.4, checks.EQ_TAU14)]
    )
    def test_reference_values(self, tau, expected):
        p = default_params(tau)
        eq = positive_equilibrium(p, tau)
        assert eq.kind == "positive"
        assert eq.tau == tau
        for got, want in zip(eq.state, expected):
            assert math.isclose(got, want, rel_tol=1e-12)
        # solved once: the same parameter object, or an equal one, hits the memo
        assert positive_equilibrium(p, tau) is eq
        assert positive_equilibrium(default_params(tau), tau) is eq

    def test_none_at_and_past_threshold(self, params):
        tm = tau_max(params)
        assert positive_equilibrium(params, tm) is None
        assert positive_equilibrium(params, tm + 0.5) is None
        assert positive_equilibrium(params, tm - 1e-9) is not None

    def test_exact_bits(self, params):
        # sha256 of repr of every solve on the CLI's 0.005 grid and at 50
        # delays of 20 sets drawn from a +-20% box (the box recorded before
        # the memo and the one-closure residual were added): any change to a
        # solved bit moves them
        rng = random.Random(20261018)
        box = []
        for _ in range(20):
            delta, gamma, mu, k, beta0, G, a, K = (
                v * rng.uniform(0.8, 1.2) for v in (0.01, 0.2, 0.02, 2.8, 0.5, 0.04, 6570.0, 0.0382)
            )
            rates = hill(beta0=beta0, G=G, a=a, K=K, r=rng.uniform(5.0, 9.0))
            box.append(with_rates(rates, delta=delta, gamma=gamma, mu=mu, k=k))
        cases = {
            "hill": ([(params, checks.cli_grid(params))],
                     "bfc7c69a89e964b8d4a7c18f678383f721ef0cfa72ea1eb4aaaebb439c55f852"),
            "box": ([(p, [tau_max(p) * i / 50 for i in range(50)]) for p in box],
                    "89354c1a13d477a9a6dad41444c0520bfa9f65308d1728b8a2b867ba8e0a09be"),
        }
        for name, (runs, digest) in cases.items():
            eqs = [positive_equilibrium(p, t) for p, taus in runs for t in taus]
            assert hashlib.sha256(repr(eqs).encode()).hexdigest() == digest, name

    def test_numerical_error_is_raised_on_every_call(self, monkeypatch):
        # a balance residual positive for every Q, which no Hill set has,
        # fails the window's check and leaves the bracket no sign change
        monkeypatch.setattr(equilibria, "_residual_fn", lambda p: lambda Q, alpha: 1.0)
        TestHillWindow.fresh_memo(monkeypatch)
        for _ in range(2):
            with pytest.raises(NumericalError, match="no sign change"):
                positive_equilibrium(default_params(), 1.0)

    def test_a_few_ulps_below_threshold(self):
        # the existence test passes, but the residual at 0+ can round to <= 0;
        # such a delay has no positive steady state to report, not a failure
        for p, tau in near_threshold_cases():
            eq = positive_equilibrium(p, tau)
            assert eq is None or (eq.Q > 0.0 and eq.M > 0.0 and eq.E > 0.0)

    def test_none_when_no_threshold(self):
        p = with_rates(hill(beta0=0.01))
        assert tau_max(p) is None
        assert positive_equilibrium(p, 0.0) is None

    def test_negative_tau_rejected(self, params):
        with pytest.raises(ValueError):
            positive_equilibrium(params, -0.1)
        # the memo keys on the delay's value, sign and type: each spelling of
        # zero keeps its own tau
        for tau in (0.0, 0, -0.0):
            assert repr(positive_equilibrium(params, tau).tau) == repr(tau)

    def test_nan_tau_rejected(self, params):
        with pytest.raises(ValueError, match="nonnegative"):
            positive_equilibrium(params, math.nan)
        # a nonzero float delay is its own key, any other delay a tuple led by it
        keys = [key if isinstance(key, float) else key[0] for key in equilibria._memo.table]
        assert not any(math.isnan(key) for key in keys)

    def test_delay_types(self, params):
        # an int of any size or a float gets an answer or ValueError, and any
        # other type gets ValueError
        tm = tau_max(params)
        assert positive_equilibrium(params, 1) == positive_equilibrium(params, 1.0)
        assert type(positive_equilibrium(params, 1).tau) is int
        assert positive_equilibrium(params, int(tm) + 1) is None
        assert positive_equilibrium(params, 10**308) is None
        for tau in (10**400, -(10**400), 2**1024, -1, decimal.Decimal("1"), "1.0", 1 + 0j,
                    fractions.Fraction(1, 2), None):
            with pytest.raises(ValueError):
                positive_equilibrium(params, tau)

    def test_memo_keys(self, params):
        memo = equilibria.ParamsMemo()
        for i, tau in enumerate((0.0, -0.0, 0, 1, 1.0)):
            memo.put(params, tau, i)
        assert [memo.get(params, tau) for tau in (0.0, -0.0, 0, 1, 1.0)] == [0, 1, 2, 3, 4]
        assert memo.get(params, math.nan) is memo.MISSING
        assert len(memo.table) == 5

    def test_solve_reads_the_delay_argument_not_p_tau(self, params):
        # cli._simulate_once solves its reference on the config's set, not on
        # the run's replace(params, tau=tau), so that it reads the grid's memo
        for t in (0.0, 0.5, 1.4, 2.9, 2.98, 3.5):
            want = repr(positive_equilibrium(params, t))
            for x in (0.0, 1.0, 2.9, 100.0):
                assert repr(positive_equilibrium(dataclasses.replace(params, tau=x), t)) == want

    def test_balance_and_consistency(self, params):
        tm = tau_max(params)
        for i in range(25):
            tau = tm * i / 25.0
            eq = positive_equilibrium(params, tau)
            r = params.rates
            assert math.isclose(eq.M, r.g(eq.Q) / params.mu, rel_tol=1e-12)
            assert math.isclose(eq.E, r.f(eq.M) / params.k, rel_tol=1e-12)
            alpha = 2.0 * math.exp(-params.gamma * tau) - 1.0
            residual = alpha * r.beta(eq.Q, eq.E) - params.delta - r.g(eq.Q) / eq.Q
            assert abs(residual) < 1e-10

    def test_monotone_in_tau(self, params, monkeypatch):
        # a memo bound below the grid length: the table restarts, never grows
        # past it; p is unequal to params (p.tau), so its table starts empty
        monkeypatch.setattr(equilibria, "_MEMO_POINTS", 16)
        p = dataclasses.replace(params, tau=1.0)
        tm = tau_max(p)
        prev = None
        for i in range(50):
            eq = positive_equilibrium(p, tm * i / 50.0)
            assert len(equilibria._memo.table) <= 16
            if prev is not None:
                assert eq.Q < prev.Q
                assert eq.M < prev.M
                assert eq.E > prev.E
            prev = eq

    def test_uniqueness_on_random_hill_sets(self):
        """The balance residual changes sign exactly once below 10x the root."""
        rng = random.Random(20240817)
        accepted = 0
        while accepted < 200:
            p = with_rates(
                hill(
                    beta0=rng.uniform(0.05, 2.0),
                    G=rng.uniform(0.001, 0.5),
                    a=rng.uniform(10.0, 1e4),
                    K=rng.uniform(1e-4, 1.0),
                    r=rng.uniform(1.5, 12.0),
                ),
                delta=rng.uniform(1e-3, 0.5),
                gamma=rng.uniform(0.0, 1.0),
                mu=rng.uniform(1e-3, 0.5),
                k=rng.uniform(0.5, 5.0),
            )
            tm = tau_max(p)
            if tm is None:
                continue
            tau = rng.uniform(0.0, 0.95 * min(tm, 1e3))
            accepted += 1
            q_hat = hill_equilibrium_closed_form(p, tau).Q
            alpha = 2.0 * math.exp(-p.gamma * tau) - 1.0
            r = p.rates

            def residual(Q):
                return alpha * r.beta(Q, r.f(r.g(Q) / p.mu) / p.k) - p.delta - r.g(Q) / Q

            lo, hi = 1e-9 * q_hat, 10.0 * q_hat
            qs = [lo * (hi / lo) ** (j / 400.0) for j in range(401)]
            signs = [residual(q) > 0.0 for q in qs]
            flips = sum(a != b for a, b in zip(signs, signs[1:]))
            assert flips == 1, f"{flips} sign changes for {p}"


class TestHillWindow:
    """A solve of exact HillRates bisects inside a window around the closed-form
    root, and returns the plain bisection's bits."""

    @staticmethod
    def walks():
        """(params, delays): the reference grid and every 7th point of eight
        +-20% Hill sets, each followed by tau_max*(1 - 10**-k)."""
        ref = default_params()
        runs = [(ref, checks.cli_grid(ref))]
        runs += [(p, checks.cli_grid(p)[::7]) for p in map(checks.perturbed_params, range(8))]
        return [
            (p, taus + [tau_max(p) * (1.0 - 10.0**-k) for k in (3, 6, 9, 12, 14)])
            for p, taus in runs
        ]

    def test_windowed_solve_is_the_plain_bisection(self, monkeypatch):
        window, windows = equilibria._hill_window, []

        def recorded(*args):
            windows.append(window(*args))
            return windows[-1]

        solve = equilibria._solve_positive
        walked = [(p, tau) for p, taus in self.walks() for tau in taus]
        hill = windowed = 0
        for i, (p, tau) in enumerate(walked + near_threshold_cases()):
            monkeypatch.setattr(equilibria, "_hill_window", recorded)
            windows.clear()
            got = solve(p, tau)
            monkeypatch.setattr(equilibria, "_hill_window", lambda *args: (0.0, math.inf))
            assert repr(got) == repr(solve(p, tau)), (p, tau)
            if windows and got is not None and i < len(walked):
                hill += 1
                windowed += windows[-1][1] < math.inf
        # within a few ulps of tau_max the closed form's numerator can round
        # to <= 0, so the near-threshold cases are compared but not counted
        assert hill > 1300 and windowed >= 0.95 * hill, (hill, windowed)

    def test_window_does_not_find_a_root_the_plain_solve_lacks(self, monkeypatch):
        # a few ulps below tau_max the plain solve can return None (the
        # residual at the bracket's low end rounds to <= 0); the windowed
        # solve must too, even with a window taken on trust around the root
        # of a slightly smaller delay
        solve = equilibria._solve_positive
        cases = []
        for p, tau in near_threshold_cases():
            if solve(p, tau) is None:
                tm = tau_max(p)
                for d in (1e-14, 1e-13, 1e-12):
                    prev = solve(p, tm * (1.0 - d))
                    if prev is not None:
                        cases.append((p, tau, prev.Q))
                        break
        assert len(cases) > 50, len(cases)
        monkeypatch.setattr(equilibria, "_hill_window", lambda *args: (0.0, math.inf))
        for p, tau, _ in cases:
            assert solve(p, tau) is None, (p, tau)
        for p, tau, q in cases:
            monkeypatch.setattr(equilibria, "_hill_window", lambda *args, q=q: (q, 2.0 * q))
            assert solve(p, tau) is None, (p, tau, q)

    def test_rates_outside_their_contract_get_the_plain_solve(self):
        # K < 0 would make the closed-form root complex; such a set is refused
        # when it is built, so no solve ever sees it
        with pytest.raises(ValueError, match="rate parameter K must be positive"):
            equilibria._solve_positive(with_rates(hill(K=-0.0382)), 1.0)

    @staticmethod
    def fresh_memo(monkeypatch, per_set=None):
        memo = equilibria.ParamsMemo(per_set or equilibria._set_constants)
        monkeypatch.setattr(equilibria, "_memo", memo)
        return memo

    def test_residual_is_evaluated_only_inside_the_window(self, monkeypatch):
        # once a solve has its window (a, b), the bracket expansion and the
        # bisection decide every point outside it without the residual
        make_residual, window = equilibria._residual_fn, equilibria._hill_window
        events = []  # the pool sizes evaluated and the windows taken, in order

        def residual_fn(p):
            residual = make_residual(p)

            def recorded(Q, alpha):
                events.append(Q)
                return residual(Q, alpha)

            return recorded

        def recorded_window(*args):
            events.append(window(*args))
            return events[-1]

        monkeypatch.setattr(equilibria, "_residual_fn", residual_fn)
        monkeypatch.setattr(equilibria, "_hill_window", recorded_window)
        self.fresh_memo(monkeypatch)
        p = default_params()
        grid = checks.cli_grid(p)
        windowed = inside = 0
        for tau in grid:
            events.clear()
            positive_equilibrium(p, tau)
            ends = [i for i, e in enumerate(events) if isinstance(e, tuple) and e[1] < math.inf]
            if ends:
                (a, b), after = events[ends[0]], events[ends[0] + 1:]
                assert all(a <= Q <= b for Q in after), (tau, a, b, after)
                windowed += 1
                inside += len(after)
        assert windowed >= 0.95 * len(grid), windowed
        assert inside >= windowed, inside

    def test_at_most_13_residual_evaluations_a_solve(self, monkeypatch):
        # a deterministic stand-in for a timing, counted on the reference
        # grid walk: the plain bisection makes about 58 a solve, and the
        # windowed one about 12.1
        make_residual, calls = equilibria._residual_fn, [0]

        def residual_fn(p):
            residual = make_residual(p)

            def counted(Q, alpha):
                calls[0] += 1
                return residual(Q, alpha)

            return counted

        monkeypatch.setattr(equilibria, "_residual_fn", residual_fn)
        self.fresh_memo(monkeypatch)
        p = default_params()
        grid = checks.cli_grid(p)
        for tau in grid:
            positive_equilibrium(p, tau)
        assert len(grid) <= calls[0] <= 13 * len(grid), calls[0] / len(grid)

    def test_walk_order_does_not_change_a_solve(self, monkeypatch):
        # descending, shuffled, and a walk that crosses tau_max (None entries
        # between two roots, an int delay among them) and comes back down
        rng = random.Random(20261019)
        for p in (default_params(), checks.perturbed_params(5), checks.perturbed_params(3)):
            tm = tau_max(p)
            grid = checks.cli_grid(p, 0.01)
            beyond = [int(tm) + 1, tm * (1.0 - 1e-9), tm, 1.01 * tm]
            crossing = grid[::3] + beyond + grid[-2::-5]
            for walk in (grid[::-1], rng.sample(grid, len(grid)), crossing):
                self.fresh_memo(monkeypatch)
                for tau in walk:
                    got = positive_equilibrium(p, tau)
                    assert repr(got) == repr(equilibria._solve_positive(p, tau)), (p, tau)

    def test_per_set_constants_follow_the_set(self, monkeypatch):
        # built once per parameter set, kept when a full table empties (16
        # points against a 60-point walk) and kept by a set whose own
        # constants raise
        sets = []

        def counted(p):
            constants = equilibria._set_constants(p)
            sets.append(p)
            return constants

        monkeypatch.setattr(equilibria, "_MEMO_POINTS", 16)
        memo = self.fresh_memo(monkeypatch, counted)
        bad = with_rates(hill(beta0=1e300, a=1e300))  # tau_max raises
        runs = [default_params(), checks.perturbed_params(3), checks.perturbed_params(5)]
        for p in runs:
            for tau in checks.cli_grid(p, 0.05):
                got = positive_equilibrium(p, tau)
                assert len(memo.table) <= 16
                assert repr(got) == repr(equilibria._solve_positive(p, tau)), (p, tau)
                tm, residual, tol = memo.constants
                assert tm == tau_max(p)
                assert tol == 1e-12 * (p.delta + p.rates.g_prime(0.0) + 1.0)
                alpha = 2.0 * math.exp(-p.gamma * tau) - 1.0
                assert residual(got.Q, alpha) == equilibria._residual_fn(p)(got.Q, alpha)
            with pytest.raises(NumericalError, match="not finite"):
                positive_equilibrium(bad, 1.0)
            assert memo.params is p
        assert sets == runs


class TestWarmStart:
    """The closed-form window is a solve's only warm start: it needs no earlier
    solve, so a walk's cost, counted in residual evaluations (one f each),
    depends on neither its order nor its parameter set's neighbours."""

    @staticmethod
    def counted_walk(monkeypatch, p, walk):
        """Residual evaluations a solve over `walk` on a fresh memo."""
        make_residual, calls = equilibria._residual_fn, [0]

        def residual_fn(p):
            residual = make_residual(p)

            def counted(Q, alpha):
                calls[0] += 1
                return residual(Q, alpha)

            return counted

        monkeypatch.setattr(equilibria, "_residual_fn", residual_fn)
        TestHillWindow.fresh_memo(monkeypatch)
        for tau in walk:
            positive_equilibrium(p, tau)
        return calls[0] / len(walk)

    def test_warm_solves_cost_at_most_25_rate_calls(self, monkeypatch):
        # the descending and shuffled reference walks cost what the
        # ascending one costs (about 12.1 a solve), far below the plain
        # bisection's 58
        p = default_params()
        grid = checks.cli_grid(p)
        ascending = self.counted_walk(monkeypatch, p, grid)
        assert 1.0 <= ascending <= 25.0, ascending
        shuffled = random.Random(20261019).sample(grid, len(grid))
        for walk in (grid[::-1], shuffled):
            assert self.counted_walk(monkeypatch, p, walk) == ascending

    def test_warm_solves_cost_at_most_18_rate_calls(self, monkeypatch):
        # the eight +-20% Hill sets' grids: 11.9 to 12.3 a solve
        for p in map(checks.perturbed_params, range(8)):
            cost = self.counted_walk(monkeypatch, p, checks.cli_grid(p))
            assert 1.0 <= cost <= 18.0, (p, cost)


class TestInlineHillResidual:
    """_residual_fn evaluates HillRates inline, bit for bit as
    checks.composed_residual, which composes beta, g and f."""

    @staticmethod
    def pool_sizes(p):
        """1e-12, the roots of a grid walk, seeded log-uniform pool sizes and
        ones where M**r overflows (and -1.0, f's no-feedback branch)."""
        rng = random.Random(20261019)
        tm = tau_max(p)
        roots = [equilibria._solve_positive(p, tm * i / 40).Q for i in range(40)]
        return ([1e-12, -1.0] + roots + [10.0 ** rng.uniform(-12.0, 12.0) for _ in range(200)]
                + [1e60, 1e200, 1e300])

    @pytest.mark.parametrize("seed", [None, 5])
    def test_matches_the_generic_path(self, seed, monkeypatch):
        p = default_params() if seed is None else checks.perturbed_params(seed)
        counting = checks.CountingRates(**dataclasses.asdict(p.rates))
        qs = self.pool_sizes(p)
        taus = (0.0, 1.4, 0.999 * tau_max(p))
        with pytest.raises(OverflowError):
            (p.rates.G * 1e60 / p.mu) ** p.rates.r  # the overflow case is reached
        # counted on the class, so a call from the inline path would show
        calls = dict.fromkeys(("beta", "g", "f"), 0)
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(HillRates, name)):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(HillRates, name, counted)
        inline = equilibria._residual_fn(p)
        generic = checks.composed_residual(p, counting)
        for tau in taus:
            alpha = 2.0 * math.exp(-p.gamma * tau) - 1.0
            for Q in qs:
                assert repr(inline(Q, alpha)) == repr(generic(Q, alpha)), (tau, Q)
        assert counting.calls["f"] == 3 * len(qs)
        # CountingRates' own counter counts its calls, the class counter
        # counts them again through super(): exact HillRates added none
        assert calls == counting.calls, calls


class TestClosedForm:
    def test_matches_root_finder(self, params):
        assert checks.closed_form_max_err(params) < 1e-9
        # switching the parameter set and back gives fresh solves, not the
        # other set's memo entries
        for tau in (0.0, 1.4, 2.2):
            for gamma in (0.2, 0.25, 0.2):
                p = dataclasses.replace(params, gamma=gamma)
                got = positive_equilibrium(p, tau).state
                want = hill_equilibrium_closed_form(p, tau).state
                for x, y in zip(got, want):
                    assert abs(x - y) <= 1e-9 * max(1.0, abs(y))

    def test_reference_at_zero(self):
        eq = hill_equilibrium_closed_form(default_params(), 0.0)
        for got, want in zip(eq.state, checks.EQ_TAU0):
            assert math.isclose(got, want, rel_tol=1e-12)
        # alpha(0) = 1 puts E* at (delta+G)/(beta0-(delta+G)) = 1/9
        assert math.isclose(eq.E, 1.0 / 9.0, rel_tol=1e-12)

    def test_domain_errors(self, params):
        tm = tau_max(params)
        with pytest.raises(ValueError):
            hill_equilibrium_closed_form(params, tm)
        with pytest.raises(ValueError):
            hill_equilibrium_closed_form(params, -0.5)
        with pytest.raises(ValueError):
            hill_equilibrium_closed_form(with_rates(hill(beta0=0.01)), 0.0)

    def test_delay_types(self, params):
        # positive_equilibrium's rule: an int within float range or a float
        # gets an answer or ValueError, any other type gets ValueError
        assert hill_equilibrium_closed_form(params, 1).state == (
            hill_equilibrium_closed_form(params, 1.0).state
        )
        for tau in (10**400, -(10**400), 2**1024, -1, decimal.Decimal("1"), "1.0", 1 + 0j,
                    fractions.Fraction(1, 2), None):
            with pytest.raises(ValueError):
                hill_equilibrium_closed_form(params, tau)


    def test_real_and_positive_or_refused_below_threshold(self):
        for p, tau in near_threshold_cases():
            try:
                eq = hill_equilibrium_closed_form(p, tau)
            except ValueError:
                continue
            assert isinstance(eq.Q, float) and eq.Q > 0.0


class TestCollapseTowardThreshold:
    """Scaling laws of the positive branch as tau approaches tau_max.

    The componentwise limit is (0, 0, f(0)/k); the approach rates are
    Q*, M* ~ eps**(1/r) and f(0)/k - E* ~ eps (eps = tau_max - tau), so the
    honest checks are the scaling exponents, not smallness at a fixed eps.
    """

    def test_pool_scales_with_seventh_root(self, params):
        tm = tau_max(params)
        eps = 1e-6
        q1 = positive_equilibrium(params, tm - eps).Q
        q2 = positive_equilibrium(params, tm - eps / 128.0).Q
        # 128**(1/7) = 2, so shrinking eps by 128 must halve Q*
        assert math.isclose(q2 / q1, 0.5, rel_tol=0.02)

    def test_growth_factor_approaches_linearly(self, params):
        tm = tau_max(params)
        f0k = trivial_equilibrium(params).E
        eps = 1e-6
        gap1 = f0k - positive_equilibrium(params, tm - eps).E
        gap2 = f0k - positive_equilibrium(params, tm - eps / 2.0).E
        assert gap1 > 0.0 and gap2 > 0.0
        assert math.isclose(gap1 / gap2, 2.0, rel_tol=0.01)


def test_existence_condition_forms_agree():
    """Threshold form of the existence condition vs direct root existence."""
    rng = random.Random(991)
    for _ in range(100):
        p = with_rates(
            hill(
                beta0=rng.uniform(0.01, 1.0),
                G=rng.uniform(0.001, 0.3),
                a=rng.uniform(10.0, 1e4),
                K=rng.uniform(1e-4, 1.0),
                r=rng.uniform(1.5, 10.0),
            ),
            delta=rng.uniform(1e-3, 0.3),
            gamma=rng.uniform(0.01, 1.0),
        )
        tm = tau_max(p)
        if tm is None:
            assert positive_equilibrium(p, 0.0) is None
        else:
            assert positive_equilibrium(p, max(0.0, tm - 1e-6) / 2.0) is not None
            assert positive_equilibrium(p, tm + 0.01) is None
