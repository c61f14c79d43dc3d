import dataclasses
import gc
import hashlib
import math
import platform
import random
import tracemalloc
from array import array

import pytest

from hemodelay import (
    DivergenceError,
    HillRates,
    InvalidStateError,
    InvariantViolationError,
    NumericalError,
    SystemState,
    Trajectory,
    char_coeffs,
    classify_asymptotics,
    default_params,
    detect_period,
    integrate,
    linearize,
    positive_equilibrium,
    rhs,
    routh_hurwitz_tau0,
    scaled_equilibrium_history,
)
from hemodelay.dde import _RK4_STABLE, mesh_step

import checks


def perturbed_run(tau: float, t_end: float, **kw):
    p = default_params(tau=tau)
    eq = positive_equilibrium(p, tau)
    return p, eq, integrate(p, scaled_equilibrium_history(eq), t_end, **kw)


def derivs(traj: Trajectory) -> tuple[SystemState, ...]:
    """The stored derivatives as SystemState tuples, from the dQ, dM, dE columns."""
    return tuple(map(SystemState, traj.dQ, traj.dM, traj.dE))


def packed_trajectory(p, history, dt, times, states, derivs) -> Trajectory:
    """A Trajectory of the given mesh, packed into rows as integrate packs them."""
    rows = array("d")
    for t, y, dy in zip(times, states, derivs):
        rows.extend((t, *y, *dy))
    return Trajectory(p, history, dt, memoryview(rows).toreadonly())


def sine_trajectory(dt: float = 0.1, t_end: float = 600.0) -> Trajectory:
    """All three components follow 2 + sin(2 pi t / 50)."""
    w = 2.0 * math.pi / 50.0
    n = round(t_end / dt)
    times = tuple(i * dt for i in range(n + 1))
    states = tuple(
        SystemState(*(2.0 + math.sin(w * t),) * 3) for t in times
    )
    derivs = tuple(SystemState(*(w * math.cos(w * t),) * 3) for t in times)
    return packed_trajectory(
        default_params(tau=0.5), SystemState(2.0, 2.0, 2.0), dt, times, states, derivs
    )


class TestHistory:
    """The history is one SystemState, the constant initial data on [-tau, 0]."""

    def test_constant_roundtrip(self):
        h = SystemState(1.0, 2.0, 3.0)
        traj = integrate(default_params(tau=2.0), h, 5.0)
        assert traj.history == h and type(traj.history) is SystemState
        for t in (-2.0, -0.5, 0.0):
            assert traj.state(t) is traj.history

    def test_history_is_taken_as_a_state(self):
        # a plain triple is taken as a SystemState, which state(t) returns
        # as it is for t <= 0
        traj = integrate(default_params(tau=1.0), (1.0, 2.0, 3.0), 2.0)
        assert type(traj.state(-0.5)) is SystemState
        for bad in ((1.0, 2.0), (1.0, 2.0, 3.0, -4.0)):
            with pytest.raises(TypeError):
                integrate(default_params(tau=1.0), bad, 2.0)

    @pytest.mark.parametrize("state", [(-1.0, 1.0, 1.0), (1.0, math.nan, 1.0),
                                       (1.0, 1.0, math.inf)])
    def test_rejects_bad_values(self, state):
        with pytest.raises(InvalidStateError, match="history"):
            integrate(default_params(tau=1.0), SystemState(*state), 1.0)

    def test_scaled_equilibrium(self, params):
        eq = positive_equilibrium(params, 0.0)
        s = scaled_equilibrium_history(eq, factor=1.1)
        assert type(s) is SystemState
        assert s.Q == pytest.approx(1.1 * eq.Q, rel=1e-15)
        assert s.M == pytest.approx(1.1 * eq.M, rel=1e-15)
        assert s.E == pytest.approx(1.1 * eq.E, rel=1e-15)

    @pytest.mark.parametrize("factor", [-0.5, math.nan, math.inf])
    def test_scaled_rejects_bad_factor(self, params, factor):
        # scaled_equilibrium_history checks nothing; a negative, NaN or
        # infinite factor gives a state that integrate refuses
        eq = positive_equilibrium(params, 0.0)
        history = scaled_equilibrium_history(eq, factor=factor)
        with pytest.raises(InvalidStateError) as exc:
            integrate(default_params(tau=1.0), history, 1.0)
        assert str(exc.value) == f"history Q = {history.Q!r}"


class TestIntegrateMesh:
    def test_default_substeps_resolve_the_delay(self):
        p, eq, traj = perturbed_run(1.4, 10.0)
        assert traj.dt == pytest.approx(1.4 / 64, rel=1e-15)
        assert traj.times[0] == 0.0
        assert traj.times[64] == pytest.approx(1.4, rel=1e-12)
        assert traj.t_end >= 10.0

    def test_max_step_caps_dt(self):
        p, eq, traj = perturbed_run(1.4, 10.0, max_step=0.1)
        # 14 equal substeps per delay interval
        assert traj.dt == pytest.approx(0.1, rel=1e-15)
        _, _, traj = perturbed_run(1.4, 10.0, max_step=0.03)
        assert traj.dt <= 0.03 + 1e-15
        assert (1.4 / traj.dt) == pytest.approx(round(1.4 / traj.dt), abs=1e-9)

    def test_tau_zero_step_selection(self):
        p = default_params(tau=0.0)
        eq = positive_equilibrium(p, 0.0)
        traj = integrate(p, scaled_equilibrium_history(eq), 10.0)
        assert traj.dt == pytest.approx(1.0 / 64, rel=1e-15)
        traj = integrate(p, scaled_equilibrium_history(eq), 10.0, max_step=0.05)
        assert traj.dt == 0.05
        assert traj.t_end == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("rate", ["k", "mu", "beta0"])
    @pytest.mark.parametrize("tau", [0.0, 1.4])
    def test_step_is_capped_by_the_fastest_decay_rate(self, tau, rate):
        # each of k, mu and the Q equation's delta + G + beta0 in turn is the
        # fastest rate lam, and lowers the default step to the largest
        # tau/m (at tau = 0 to the bound itself) at or below 1.3925/lam
        p = default_params(tau=tau)
        if rate == "beta0":
            p = dataclasses.replace(p, rates=dataclasses.replace(p.rates, beta0=100.0))
        else:
            p = dataclasses.replace(p, **{rate: 100.0})
        lam = {"k": 100.0, "mu": 100.0, "beta0": 0.01 + 0.04 + 100.0}[rate]
        dt = mesh_step(p, None)
        assert dt * lam <= _RK4_STABLE
        if tau > 0.0:
            m = round(tau / dt)
            assert dt == tau / m and (tau / (m - 1)) * lam > _RK4_STABLE
        else:
            assert dt == _RK4_STABLE / lam

    @pytest.mark.parametrize("tau", [0.03, 0.48])
    def test_one_step_per_delay(self, tau):
        # the read at t_next - tau is the mesh state the step starts from;
        # max_step = tau is inside the stability cap 1.3925/k up to tau 0.49
        p, _, traj = perturbed_run(tau, 30 * tau, max_step=tau)
        assert traj.dt == tau
        assert len(traj.times) == 31
        stored = derivs(traj)
        for j in range(1, len(traj.times)):
            expect = rhs(traj.states[j], traj.states[j - 1], p)
            for x, y in zip(stored[j], expect):
                assert abs(x - y) <= 1e-12 * (1.0 + abs(y))

    def test_rate_calls_per_step(self):
        # one re-entry flux per delayed read: stages 2 and 3 share the read
        # at t + dt/2 - tau, and the one at t + dt - tau serves stage 4 and
        # the next step's first stage.  At 1.4 and 2.9, t + dt is not always
        # the float (j + 1) * dt, and the count must not depend on that.
        # Counted on the composed stepper, which integrate matches bit for bit
        rates = checks.CountingRates(**dataclasses.asdict(default_params().rates))
        for tau in (0.5, 1.4, 2.9):
            p = default_params(tau=tau)
            history = scaled_equilibrium_history(positive_equilibrium(p, tau))
            rates.calls.update(beta=0, g=0, f=0)
            traj = checks.composed_trajectory(p, history, 20.0, rates=rates)
            n = len(traj.times) - 1
            # the first stage of step 0 is one full field evaluation
            assert rates.calls["beta"] == 6 * n + 2, tau
            assert rates.calls["g"] == rates.calls["f"] == 4 * n + 1, tau

    @pytest.mark.parametrize("tau, max_step", [(0.0, None), (1.4, None), (2.9, None), (1.4, 1.4)])
    def test_derivative_reads_the_mesh_state_one_delay_back(self, tau, max_step):
        # dt = tau/m, so mesh point j's delayed state is mesh point j - m,
        # bit for bit, however (j * dt) - tau rounds; at tau = 0, m = 0 and
        # it is the current state.  The stored floats are those of rhs
        p = default_params(tau=tau)
        history = scaled_equilibrium_history(positive_equilibrium(p, tau))
        traj = integrate(p, history, 30.0, max_step=max_step)
        m = round(tau / traj.dt)
        stored, states = derivs(traj), traj.states
        for j in range(m, len(states)):
            assert stored[j] == rhs(states[j], states[j - m], p), j

    def test_mesh_arrays_are_consistent(self):
        _, _, traj = perturbed_run(0.5, 20.0)
        assert len(traj.times) == len(traj.states) == len(traj.dQ)
        gaps = [b - a for a, b in zip(traj.times, traj.times[1:])]
        assert max(gaps) - min(gaps) < 1e-12

    @pytest.mark.parametrize("tau", [0.0, 1.4])
    def test_state_views_match_columns(self, tau):
        _, _, traj = perturbed_run(tau, 20.0)
        assert traj.states == tuple(map(SystemState, traj.Q, traj.M, traj.E))
        assert type(traj.states[-1]) is SystemState
        assert traj.states is traj.states


class TestIntegrateAccuracy:
    def test_equilibrium_is_a_fixed_point(self):
        for tau in (0.5, 1.4):
            p = default_params(tau=tau)
            eq = positive_equilibrium(p, tau)
            traj = integrate(p, eq.state, 1000.0)
            dev = max(
                abs(s[i] - eq.state[i]) / (1.0 + abs(eq.state[i]))
                for s in traj.states
                for i in range(3)
            )
            assert dev < 1e-9

    def test_step_halving_agrees_at_endpoint(self):
        p = default_params(tau=0.5)
        eq = positive_equilibrium(p, 0.5)
        h = scaled_equilibrium_history(eq)
        coarse = integrate(p, h, 200.0, max_step=0.5 / 64)
        fine = integrate(p, h, 200.0, max_step=0.5 / 128)
        assert coarse.t_end == fine.t_end
        rel = max(
            abs(x - y) / (1.0 + abs(y))
            for x, y in zip(coarse.states[-1], fine.states[-1])
        )
        assert rel < 1e-8

    def test_fourth_order_convergence(self):
        slope = checks.rk4_order_slope()
        assert 3.5 <= slope <= 4.5

    def test_stored_derivatives_match_dense_delayed_state(self):
        p, eq, traj = perturbed_run(0.5, 50.0)
        stored = derivs(traj)
        for m, t in enumerate(traj.times):
            if t < p.tau or t >= traj.t_end:
                continue
            recomputed = rhs(traj.states[m], traj.state(t - p.tau), p)
            for x, y in zip(recomputed, stored[m]):
                assert abs(x - y) <= 1e-12 * (1.0 + abs(y))


class TestIntegrateErrors:
    def test_rejects_nonpositive_t_end(self, params):
        h = SystemState(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="t_end"):
            integrate(params, h, 0.0)
        with pytest.raises(ValueError, match="t_end"):
            integrate(params, h, -5.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_rejects_nonfinite_t_end(self, params, t_end):
        h = SystemState(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            integrate(params, h, t_end)

    def test_rejects_nonpositive_max_step(self, params):
        h = SystemState(1.0, 1.0, 1.0)
        for max_step in (0.0, math.inf):
            with pytest.raises(ValueError, match="max_step"):
                integrate(params, h, 1.0, max_step=max_step)

    @pytest.mark.parametrize(
        "tau, t_end, max_step, match",
        [
            (1.4, 1e12, None, "t_end 1000000000000.0 needs"),  # would fill memory
            (1e-9, 30.0, None, "t_end 30.0 needs"),  # 2e12 steps of tau/64
            (1.4, 30.0, 1e-320, "steps per delay"),  # tau/max_step overflows to inf
            (0.0, 30.0, 5e-324, "t_end 30.0 needs inf steps"),
        ],
    )
    def test_refuses_too_many_steps_before_allocating(self, tau, t_end, max_step, match):
        h = SystemState(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=match) as exc:
            integrate(default_params(tau=tau), h, t_end, max_step=max_step)
        assert "at most 10000000 are allowed" in str(exc.value)
        assert "lambda" not in str(exc.value)  # the stability cap did not set the step

    @pytest.mark.parametrize("tau, match", [(1.4, "steps per delay"), (0.0, "t_end 30.0 needs")])
    def test_step_count_errors_name_the_stability_cap(self, tau, match):
        # k = 1e9 lowers the step to 1.3925e-9, a max_step never passed
        p = dataclasses.replace(default_params(tau=tau), k=1e9)
        with pytest.raises(ValueError, match=match) as exc:
            integrate(p, SystemState(1.0, 1.0, 1.0), 30.0)
        assert "lambda = max(k, mu, delta + G + beta0) = 1000000000.0" in str(exc.value)

    def test_rejects_invalid_params(self):
        # a set with mu = 0 is refused when it is built, before integrate runs
        h = SystemState(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="mu must be positive"):
            integrate(dataclasses.replace(default_params(), mu=0.0), h, 1.0)

    def test_bad_history_raises_invalid_state(self, params):
        h = SystemState(-1.0, 1.0, 1.0)
        with pytest.raises(InvalidStateError):
            integrate(params, h, 1.0)

    def test_negative_overshoot_raises_invariant_violation(self):
        # the step capped at 1.3925/k, z = k*dt = 1.3913, with f(M) = 0 (M**r
        # overflows) takes stage 4's E to E*(1 - z + z**2/2 - z**3/4), about
        # -0.097*E; this E puts it just below -1, where beta is about 5000: Q
        # overshoots below the floor
        p = dataclasses.replace(default_params(tau=1.0), k=256.0)
        z = p.k * mesh_step(p, None)
        h = SystemState(1.0, 1e300, -1.0001 / (1.0 - z + z * z / 2.0 - z**3 / 4.0))
        with pytest.raises(InvariantViolationError) as exc:
            integrate(p, h, 10.0)
        assert exc.value.last_time == 0.0
        assert "component reached" in str(exc.value)

    @pytest.mark.parametrize("tau", [1.0, 0.0])
    def test_stage_growth_factor_at_minus_one_raises_invariant_violation(self, tau):
        # the step capped at 1.3925/k with f(M) = 0 takes stage 4's E to about
        # -0.1*E, as above; from these E it lands on exactly -1, where beta
        # divides by zero
        p = dataclasses.replace(default_params(tau=tau), k=256.0)
        h = SystemState(1.0, 1e300, {1.0: 10.337298215802882, 0.0: 10.203474418554386}[tau])
        with pytest.raises(InvariantViolationError, match="E reached -1") as exc:
            integrate(p, h, 1.0)
        assert exc.value.last_time == 0.0

    def test_overflow_raises_divergence(self):
        # with M = 0 the feedback is a = 1e308, and the E update overflows
        rates = dataclasses.replace(default_params().rates, a=1e308)
        p = dataclasses.replace(default_params(tau=1.0), rates=rates)
        h = SystemState(0.0, 0.0, 0.0)
        with pytest.raises(DivergenceError) as exc:
            integrate(p, h, 10.0)
        assert exc.value.last_time == 0.0
        assert "non-finite" in str(exc.value)


def trajectory_digest(traj: Trajectory) -> str:
    # a memoryview's repr is its address, so the times go in as a tuple
    return hashlib.sha256(repr((tuple(traj.times), traj.states, derivs(traj))).encode()).hexdigest()


class TestTrajectoryBits:
    """Every mesh time, state and derivative, pinned by a sha256 of their repr.

    A change to the stepper that moves any float by one rounding step fails
    here; a deliberate change of the arithmetic must re-record the digests.
    """

    def test_tau_zero(self):
        _, _, traj = perturbed_run(0.0, 50.0, max_step=0.05)
        assert trajectory_digest(traj) == (
            "e80a7adb884a1c3c366e2002e8a9e9dd046c7cda0b581564b9d698a27b51ad55"
        )

    def test_delayed(self):
        _, _, traj = perturbed_run(0.5, 50.0)
        assert trajectory_digest(traj) == (
            "765a7f62c2801f4a2de5a880134a8e0c2f390444a023e2f4523f99003575b74a"
        )

    def test_delayed_off_mesh_reads(self):
        # tau = 2.9: dt = tau/64 is not a power of two, so t + dt and
        # t + dt - tau round away from mesh times on some steps; the
        # full-step read is mesh point j + 1 - m whatever they round to
        _, _, traj = perturbed_run(2.9, 40.0)
        assert trajectory_digest(traj) == (
            "354eb373c1f58f36f6c914b03e4f46371f4e29b2dec4fcec2371fc1a80cfe28a"
        )

    def test_one_step_per_delay(self):
        # the read at t + dt - tau is the mesh state the step starts from
        _, _, traj = perturbed_run(0.03, 0.9, max_step=0.03)
        assert trajectory_digest(traj) == (
            "7f6cc47e78678a56a3bcccbb72465abcc1ddabfd640497b7de0fcce5ff6dde58"
        )

    def test_generic_rate_functions(self):
        # the composed stepper that integrate is held to, on rates whose beta
        # falls with Q
        h = SystemState(1.0, 2.0, 3.0)
        p = default_params(tau=1.4)
        traj = checks.composed_trajectory(p, h, 30.0, rates=checks.DampedRates())
        assert trajectory_digest(traj) == (
            "d3f30193fce965c14a032d45128a99f5f457c2d201c38a29264cbd2435030b86"
        )


class TestInlineHillField:
    """integrate steps HillRates with the field written out, bit for bit as
    checks.composed_trajectory, which composes beta, g and f."""

    @staticmethod
    def hill_params(seed, tau):
        # the reference beta0 = 0.5 multiplies exactly; a perturbed set's
        # does not, and its r is not an integer
        p = default_params() if seed is None else checks.perturbed_params(seed)
        return dataclasses.replace(p, tau=tau)

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.4, 2.9])
    def test_rows_match_the_generic_path(self, tau, seed):
        p = self.hill_params(seed, tau)
        history = SystemState(3.6, 7.3, 0.12)
        # the default tau/64, the sweep's 0.05 and max_step = tau: one step
        # per delay at 0.3, lowered by the stability cap 1.3925/k past 0.5
        for max_step in (None, 0.05) + ((tau,) if tau > 0.0 else ()):
            inline = integrate(p, history, 12.0, max_step=max_step)
            generic = checks.composed_trajectory(p, history, 12.0, max_step)
            assert inline.rows.tobytes() == generic.rows.tobytes(), max_step

    @pytest.mark.parametrize("seed", [None, 5])
    def test_runs_match_the_generic_path_from_edge_histories(self, seed):
        # M = 0, 5e-324 (K*M**r underflows) and 1e300 (M**r overflows); E = 0
        # and a huge E push beta to its ends, and 1.7e308 overflows -k*E and
        # ends the run; a clearance mu of 2.4/dt caps the step at 1.3925/mu,
        # and stage 4 takes M to about -0.09*M, f's no-feedback branch.  Rows,
        # or the error, must be the same
        branches = set()

        @dataclasses.dataclass(frozen=True)
        class BranchHill(HillRates):
            """HillRates noting which branches f and beta take."""

            def beta(self, Q, E):
                branches.add("E = 0" if E == 0.0 else "E huge" if E > 1e300 else "E")
                return super().beta(Q, E)

            def f(self, M):
                if M <= 0.0:
                    branches.add("M <= 0")
                elif M > 1e100:
                    branches.add("M**r overflows")
                elif self.K * M**self.r == 0.0:
                    branches.add("K*M**r underflows")
                return super().f(M)

        def outcome(run, *args, **kw):
            try:
                return run(*args, **kw).rows.tobytes()
            except NumericalError as err:
                return type(err), str(err), err.last_time

        errors = 0
        for tau in (0.0, 1.4):
            p = self.hill_params(seed, tau)
            fast_mu = dataclasses.replace(p, mu=2.4 / mesh_step(p, None))
            for q, state in (
                (p, (2.9, 0.0, 0.24)),
                (p, (2.9, 5e-324, 0.24)),
                (p, (2.9, 1e300, 0.24)),
                (p, (2.9, 6.6, 0.0)),
                (p, (1e-300, 6.6, 1e300)),
                (p, (3.3, 6.6, 1.7e308)),
                (p, (0.0, 0.0, 0.0)),
                (fast_mu, (2.9, 6.6, 0.24)),
            ):
                history = SystemState(*state)
                inline = outcome(integrate, q, history, 12.0)
                generic = outcome(
                    checks.composed_trajectory, q, history, 12.0,
                    rates=BranchHill(**dataclasses.asdict(q.rates)),
                )
                assert inline == generic, (tau, q.mu, state)
                errors += not isinstance(inline, bytes)
        assert branches == {"E = 0", "E huge", "E", "M <= 0", "M**r overflows", "K*M**r underflows"}
        assert 0 < errors < 16  # some runs end in an error, and some run to the end

    def test_exact_hill_rates_call_no_rate_method(self, monkeypatch):
        # counted on the class, so the composed stepper's calls show (6n + 2
        # beta calls per 20-day run) and integrate's absence does too
        calls = dict.fromkeys(("beta", "g", "f"), 0)
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(HillRates, name)):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(HillRates, name, counted)
        for tau in (0.5, 1.4, 2.9):
            p = default_params(tau=tau)
            assert type(p.rates) is HillRates
            history = scaled_equilibrium_history(positive_equilibrium(p, tau))
            for run, generic in ((integrate, False), (checks.composed_trajectory, True)):
                calls.update(beta=0, g=0, f=0)
                n = len(run(p, history, 20.0).times) - 1
                want = (6 * n + 2, 4 * n + 1, 4 * n + 1) if generic else (0, 0, 0)
                assert tuple(calls.values()) == want, (tau, generic)


class TestInterpolate:
    def test_exact_on_mesh_points(self):
        # dt = 0.5/64 is a power of two, so the segment lookup is exact
        _, _, traj = perturbed_run(0.5, 20.0)
        for m in (0, 1, 17, len(traj.times) - 2, len(traj.times) - 1):
            assert traj.state(traj.times[m]) == traj.states[m]

    def test_history_side_queries(self):
        p, eq, traj = perturbed_run(1.0, 5.0)
        expect = scaled_equilibrium_history(eq)
        assert traj.state(-0.5) == expect
        assert traj.state(-1.0) == expect

    def test_domain_errors(self):
        _, _, traj = perturbed_run(1.0, 5.0)
        with pytest.raises(ValueError, match="outside"):
            traj.state(-1.1)
        with pytest.raises(ValueError, match="outside"):
            traj.state(traj.t_end + 1.0)
        with pytest.raises(ValueError, match="outside"):
            traj.state(math.nan)

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="tuple untracking is CPython's collector")
    def test_reads_are_plain_tuples_the_gc_stops_tracking(self):
        # a held read is not walked again by each older-generation
        # collection; both sides of t = 0 unpack by position, and the
        # history side is the history itself
        _, _, traj = perturbed_run(0.5, 20.0)
        held = traj.state(3.3)
        gc.collect()
        assert not gc.is_tracked(held)
        for t in (-0.5, -0.2, 0.0):
            Q, M, E = traj.state(t)
            assert traj.state(t) is traj.history and (Q, M, E) == traj.history
        for m in (1, 64, len(traj.times) - 1):
            Q, M, E = traj.state(traj.times[m])
            assert (Q, M, E) == traj.states[m]

    def test_reproduces_cubics_between_mesh_points(self):
        # Hermite segments are exact on polynomials up to degree three
        def y(t):
            return t * t * t - 2.0 * t * t + 3.0

        def dy(t):
            return 3.0 * t * t - 4.0 * t

        dt = 0.5
        times = tuple(i * dt for i in range(11))
        states = tuple(SystemState(*(y(t),) * 3) for t in times)
        derivs = tuple(SystemState(*(dy(t),) * 3) for t in times)
        traj = packed_trajectory(
            default_params(tau=1.0), SystemState(3.0, 3.0, 3.0), dt, times, states, derivs
        )
        for t in (0.1, 0.77, 2.34, 4.9, 4.999):
            Q, _, _ = traj.state(t)
            assert Q == pytest.approx(y(t), rel=1e-12, abs=1e-9)

    def test_state_method_is_dense_output(self):
        # the cubic Hermite interpolant of the stored columns, written out
        # in the standard basis: in the first segment, inside, in the last
        # segment (whose index state(t) clamps) and at t_end
        _, _, traj = perturbed_run(0.5, 5.0)
        dt, last = traj.dt, len(traj.times) - 2
        for t in (0.5 * dt, 0.3, 1.234, 4.5, traj.times[last] + 0.5 * dt, traj.t_end):
            i = min(int(t / dt), last)
            s = (t - traj.times[i]) / dt
            h00, h10 = 2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s
            h01, h11 = -2 * s**3 + 3 * s**2, s**3 - s**2
            for k, c in enumerate("QME"):
                y, dy = getattr(traj, c), getattr(traj, "d" + c)
                want = h00 * y[i] + h10 * dt * dy[i] + h01 * y[i + 1] + h11 * dt * dy[i + 1]
                assert traj.state(t)[k] == pytest.approx(want, rel=1e-14)


def dense_read_digest(traj: Trajectory, seed: int) -> str:
    """sha256 of the repr of 2000 seeded state(t) reads over the whole domain,
    each taken as a SystemState, so the digest pins the floats and their order."""
    rng = random.Random(seed)
    tau, t_end, last = traj.params.tau, traj.t_end, len(traj.times) - 1
    tol = 1e-9 * max(1.0, t_end)
    ts = [-tau, 0.0, -0.5 * tol, t_end, t_end + 0.5 * tol]
    ts += [-tau * rng.random() for _ in range(200)]  # the history
    ts += [traj.times[rng.randrange(last + 1)] for _ in range(400)]  # mesh times
    ts += [t_end * rng.random() for _ in range(1000)]  # interior points
    ts += [traj.times[last - 1] + traj.dt * rng.random() for _ in range(395)]  # last segment
    return hashlib.sha256(repr([SystemState._make(traj.state(t)) for t in ts]).encode()).hexdigest()


class TestDenseReadBits:
    """Every dense read, pinned by a sha256 of the repr of seeded reads."""

    def test_delayed(self):
        _, _, traj = perturbed_run(1.4, 50.0)
        assert dense_read_digest(traj, 1) == (
            "df9918013a22636fb0ab13a75146b795cdf8e1a91b423ec9c8802c6b175a5ec0"
        )

    def test_tau_zero(self):
        _, _, traj = perturbed_run(0.0, 50.0, max_step=0.05)
        assert dense_read_digest(traj, 2) == (
            "b485f03842ea8a5bb31e6481808fc5deb772f472fbc3da0c41d6a0d76543471e"
        )


class TestStorage:
    """The columns are packed float64 buffers that callers can read, not write."""

    def test_columns_are_read_only_float64(self):
        _, _, traj = perturbed_run(1.4, 20.0)
        columns = (traj.times, traj.Q, traj.M, traj.E, traj.dQ, traj.dM, traj.dE)
        assert len({len(c) for c in columns}) == 1
        for c in columns:
            assert c.format == "d"
            with pytest.raises(TypeError):
                c[0] = 1.0
        assert type(traj.state(3.3)) is tuple

    def test_columns_are_views_of_one_row_buffer(self):
        _, _, traj = perturbed_run(1.4, 20.0)
        rows = traj.rows
        assert rows.format == "d" and rows.readonly and rows.c_contiguous
        assert rows.nbytes == 56 * len(traj.times)
        columns = (traj.times, traj.Q, traj.M, traj.E, traj.dQ, traj.dM, traj.dE)
        for c, column in enumerate(columns):
            assert column.obj is rows.obj
            assert column.strides == (56,)
            assert column.tolist() == rows.tolist()[c::7]
        assert traj.times is traj.times

    def test_tail_slices_are_views(self):
        _, _, traj = perturbed_run(1.4, 20.0)
        tail = traj.times[100:]
        assert tail.obj is traj.times.obj
        assert tail[0] == traj.times[100] and len(tail) == len(traj.times) - 100

    def test_kept_bytes_per_mesh_point(self):
        # seven float64 columns keep 56 bytes a mesh point, and the stepper
        # writes each row into the buffer it returns, so the peak while
        # stepping is that buffer too; the margins leave no room for a boxed
        # float (24 bytes) per mesh point and column
        p, eq, _ = perturbed_run(0.5, 1.0)
        history = scaled_equilibrium_history(eq)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            traj = integrate(p, history, 20.0)
            peak = tracemalloc.get_traced_memory()[1] - before
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        points = len(traj.times)
        assert points == 2561
        assert kept <= 1.25 * 56 * points, kept
        assert peak <= 80 * points, peak / points


class TestDetectPeriod:
    def test_synthetic_sine(self):
        est = detect_period(sine_trajectory(), "Q", 50.0)
        assert est is not None
        assert est.period == pytest.approx(50.0, abs=0.5)
        assert est.std < 0.1
        assert est.n_peaks == 11
        assert est.amplitude_ratio == pytest.approx(1.0, abs=0.01)
        assert est.mean_level == pytest.approx(2.0, abs=0.01)
        assert len(est.peak_times) == len(est.peak_values) == est.n_peaks

    def test_component_selectors_agree(self):
        traj = sine_trajectory()
        ests = [detect_period(traj, c, 50.0) for c in ("Q", "M", "E")]
        assert all(e.period == ests[0].period for e in ests)

    @pytest.mark.parametrize("component", ["X", "q", 0, 5, -1])
    def test_unknown_component(self, component):
        with pytest.raises(ValueError):
            detect_period(sine_trajectory(), component, 50.0)

    def test_transient_past_the_run(self):
        traj = sine_trajectory()
        with pytest.raises(ValueError, match="transient"):
            detect_period(traj, "Q", traj.t_end)
        with pytest.raises(ValueError, match="transient"):
            detect_period(traj, "Q", 1e6)
        with pytest.raises(ValueError, match="transient"):
            detect_period(traj, "Q", math.nan)

    def test_too_few_peaks_gives_none(self):
        # only two maxima remain after t = 480
        assert detect_period(sine_trajectory(), "Q", 480.0) is None

    def test_decayed_oscillation_gives_none(self, standard_runs):
        run = standard_runs[0.5]
        assert detect_period(run.traj, "Q", run.transient) is None


class TestClassify:
    @staticmethod
    def runs_in(scan_result, standard_runs, piece):
        """The standard runs at delays the stability partition calls `piece`."""
        runs = [run for run in standard_runs.values()
                if any(lo <= run.tau < hi and v == piece for lo, hi, v in scan_result.partition)]
        assert runs, piece
        return runs

    def test_converging_runs(self, scan_result, standard_runs):
        for run in self.runs_in(scan_result, standard_runs, "stable"):
            verdict = classify_asymptotics(run.traj, run.eq, run.transient)
            assert verdict == "converging", f"tau={run.tau}: {verdict}"

    def test_sustained_runs(self, scan_result, standard_runs):
        for run in self.runs_in(scan_result, standard_runs, "unstable"):
            verdict = classify_asymptotics(run.traj, run.eq, run.transient)
            assert verdict == "sustained-oscillation", f"tau={run.tau}: {verdict}"

    def test_slow_decay_is_unclassified(self, probe_runs):
        run = probe_runs[1.3234]
        assert classify_asymptotics(run.traj, run.eq, run.transient) == "unclassified"

    def test_run_at_the_equilibrium_converges(self):
        # the history is the equilibrium itself, so the deviation is 0.0 in
        # both windows; 0.0 is at most 5% of 0.0
        p = default_params(tau=0.5)
        eq = positive_equilibrium(p, 0.5)
        traj = integrate(p, scaled_equilibrium_history(eq, 1.0), 1000.0)
        assert (set(traj.Q), set(traj.M), set(traj.E)) == ({eq.Q}, {eq.M}, {eq.E})
        assert classify_asymptotics(traj, eq, 100.0) == "converging"

    def test_synthetic_divergence(self):
        p = default_params(tau=1.4)
        eq = positive_equilibrium(p, 1.4)
        times = tuple(float(i) for i in range(1001))
        states = tuple(
            SystemState(eq.Q + 1e-3 * math.exp(0.01 * t), eq.M, eq.E) for t in times
        )
        derivs = tuple(
            SystemState(1e-5 * math.exp(0.01 * t), 0.0, 0.0) for t in times
        )
        traj = packed_trajectory(p, eq.state, 1.0, times, states, derivs)
        assert classify_asymptotics(traj, eq, 100.0) == "diverging"

    def test_transient_must_precede_end(self, standard_runs):
        run = standard_runs[0.5]
        with pytest.raises(ValueError):
            classify_asymptotics(run.traj, run.eq, run.traj.t_end)
        with pytest.raises(ValueError):
            classify_asymptotics(run.traj, run.eq, math.nan)

    def test_window_without_mesh_point(self):
        # dt = 1.4/3 leaves no mesh point in [19.5, 19.56], and from t = 17.7
        # on an eighth of the span (0.29) can fall between two mesh points
        p, eq, traj = perturbed_run(1.4, 20.0, max_step=0.49)
        assert traj.dt == 1.4 / 3
        with pytest.raises(ValueError, match="^the first 10% window after the transient holds no mesh"):
            classify_asymptotics(traj, eq, 19.5)
        with pytest.raises(ValueError, match="^segment 3 of 8 after the transient holds no mesh"):
            classify_asymptotics(traj, eq, traj.times[38])

    def test_tau_zero_run_matches_tau0_stability(self):
        p = default_params(tau=0.0)
        eq = positive_equilibrium(p, 0.0)
        traj = integrate(p, scaled_equilibrium_history(eq), 600.0)
        verdict = classify_asymptotics(traj, eq, 150.0)
        cc = char_coeffs(linearize(p, eq, 0.0), p.mu, p.k)
        assert routh_hurwitz_tau0(cc) is True
        assert verdict == "converging"


class TestOscillationPeriods:
    def test_period_tracks_crossing_frequency(self, probe_runs):
        # just past the first switch the cycle period should sit close to
        # 2*pi over the crossing frequency
        run = probe_runs[1.4234]
        est = detect_period(run.traj, "Q", run.transient)
        assert est is not None
        linear = 2.0 * math.pi / checks.OMEGA_STAR_1
        assert abs(est.period - linear) / linear < 0.10


class TestStateBounds:
    def test_standard_runs_stay_in_bounds(self, standard_runs):
        for run in standard_runs.values():
            assert checks.bound_violations(run) == []

    def test_probe_runs_stay_in_bounds(self, probe_runs):
        for run in probe_runs.values():
            assert checks.bound_violations(run) == []
