"""Schedule construction, phase bookkeeping, growth constant, admissibility."""

import hashlib
import math

import numpy as np
import pytest

from sgdm_sched import schedules
from sgdm_sched.schedules import (
    MomentumTooLarge,
    PhasePlan,
    ScheduleError,
    ScheduleSpec,
    admissible_lr_bound,
    build_increasing_bs_table,
    table_to_csv,
    validate_admissible,
)

from conftest import constant_bs_table, random_decaying_lr, random_plan


def plan_spec(regime, plan, kind="constant", **rates):
    """A phase-regime ScheduleSpec over the fields of ``plan``."""
    return ScheduleSpec(regime, kind, b0=plan.b0, delta=plan.delta,
                        epochs_per_phase=plan.epochs_per_phase,
                        dataset_size=plan.dataset_size, **rates)


class TestConstantBatchTables:
    def test_constant_lr(self):
        table = constant_bs_table("constant", batch=4, T=5, lambda_max=0.1)
        np.testing.assert_array_equal(table.lr, [0.1] * 5)
        np.testing.assert_array_equal(table.batch, [4] * 5)

    def test_diminishing_lr(self):
        # oracle: lambda_max / sqrt(t+1) evaluated directly
        expected = [1.0 / math.sqrt(t + 1) for t in range(3)]
        assert expected == pytest.approx([1.0, 0.7071067811865475, 0.5773502691896258])
        table = constant_bs_table("diminishing", batch=1, T=3, lambda_max=1.0)
        np.testing.assert_allclose(table.lr, expected, rtol=0, atol=0)

    def test_cosine_lr_three_epochs(self):
        # oracle: (1 + cos(m*pi/3)) / 2 for epochs m = 0, 1, 2
        expected_per_epoch = [(1 + math.cos(m * math.pi / 3)) / 2 for m in range(3)]
        assert expected_per_epoch == pytest.approx([1.0, 0.75, 0.25], abs=1e-12)
        # K = 5, E = 3
        table = constant_bs_table("cosine", batch=1, T=15, dataset_size=5, lambda_max=1.0)
        for t in range(15):
            assert table.lr[t] == pytest.approx(expected_per_epoch[t // 5], abs=1e-12)

    def test_polynomial_lr(self):
        # oracle: (lmax - lmin) (1 - t/T)^p + lmin evaluated directly
        table = constant_bs_table("polynomial", batch=2, T=10, lambda_max=1.0,
                                  lambda_min=0.1, p=2.0)
        expected = [(1.0 - 0.1) * (1 - t / 10) ** 2 + 0.1 for t in range(10)]
        np.testing.assert_allclose(table.lr, expected, rtol=1e-15)

    def test_rejects_zero_T(self):
        with pytest.raises(ScheduleError):
            constant_bs_table("constant", batch=1, T=0, lambda_max=0.1)

    def test_rejects_cosine_partial_epoch(self):
        with pytest.raises(ScheduleError, match="multiple"):
            constant_bs_table("cosine", batch=1, T=14, dataset_size=5, lambda_max=1.0)

    def test_rejects_min_above_max(self):
        with pytest.raises(ScheduleError, match="lambda_min <= lambda_max"):
            constant_bs_table("cosine", batch=1, T=5, dataset_size=1, lambda_max=0.1,
                              lambda_min=0.2)

    def test_rejects_growth_kind(self):
        with pytest.raises(ScheduleError, match="does not take kind 'exp_growth'"):
            constant_bs_table("exp_growth", batch=1, T=5, gamma=1.5, lambda0=0.1)


class TestPhasePlan:
    def test_doubling_plan_bookkeeping(self):
        # b0=8, delta=2, one epoch per phase, n=32: batches 8/16/32,
        # K_m = ceil(32/b_m) = 4/2/1, phases [0,4) [4,6) [6,7)
        plan = PhasePlan(b0=8, delta=2.0, epochs_per_phase=(1, 1, 1), dataset_size=32)
        assert plan.batch_sizes == (8, 16, 32)
        assert plan.steps_per_epoch_all == (4, 2, 1)
        assert plan.phase_starts == (0, 4, 6, 7)
        assert plan.total_steps == 7
        np.testing.assert_array_equal(plan.step_phases(), [0, 0, 0, 0, 1, 1, 2])
        np.testing.assert_array_equal(plan.step_batches(), [8, 8, 8, 8, 16, 16, 32])

    def test_partition_no_gaps_or_overlaps(self, rng):
        for _ in range(50):
            plan = PhasePlan(**random_plan(rng))
            starts = plan.phase_starts
            assert starts[0] == 0
            assert starts[-1] == plan.total_steps
            assert all(b > a for a, b in zip(starts, starts[1:]))
            phases = plan.step_phases()
            assert phases.shape == (plan.total_steps,)
            # each step belongs to exactly one phase and phases are contiguous
            for m in range(plan.M + 1):
                seg = phases[starts[m] : starts[m + 1]]
                assert np.all(seg == m)

    def test_rejects_batch_beyond_dataset(self):
        with pytest.raises(ScheduleError, match="exceeds dataset"):
            PhasePlan(b0=8, delta=2.0, epochs_per_phase=(1, 1, 1), dataset_size=31)

    def test_rejects_bad_delta(self):
        with pytest.raises(ScheduleError):
            PhasePlan(b0=8, delta=1.0, epochs_per_phase=(1,), dataset_size=8)

    def test_non_integer_growth_rounds(self):
        plan = PhasePlan(b0=10, delta=1.5, epochs_per_phase=(1, 1, 1), dataset_size=23)
        assert plan.batch_sizes == (10, 15, 23)  # 22.5 rounds half-up

    @pytest.mark.parametrize("regime, rates", [
        ("increasing-bs", {}),
        ("joint-growth", {"gamma": 1.5, "lambda0": 0.1}),
        ("warmup", {"gamma": 1.5, "lambda0": 0.1, "warmup_phases": 0}),
    ])
    def test_build_without_dataset_size_names_it(self, regime, rates):
        # neither the spec nor a problem gives the n the steps per epoch need
        spec = ScheduleSpec(regime, b0=4, delta=2.0, epochs_per_phase=(1, 1), **rates)
        with pytest.raises(ScheduleError, match="needs a dataset_size"):
            spec.build(None)


class TestIncreasingBatchTables:
    def test_exp_growth_lr_per_phase(self):
        plan = PhasePlan(b0=8, delta=2.0, epochs_per_phase=(1, 1, 1), dataset_size=32)
        table = build_increasing_bs_table(plan_spec("joint-growth", plan, gamma=1.5, lambda0=0.1),
                                          plan)
        # oracle: gamma^m * lambda0 per phase
        expected = [0.1] * 4 + [0.1 * 1.5] * 2 + [0.1 * 1.5**2]
        np.testing.assert_allclose(table.lr, expected, rtol=1e-15)
        assert expected[4] == pytest.approx(0.15) and expected[6] == pytest.approx(0.225)

    def test_warmup_constant_freezes_after_warmup(self):
        plan = PhasePlan(b0=8, delta=2.0, epochs_per_phase=(1, 1, 1), dataset_size=32)
        spec = plan_spec("warmup", plan, gamma=1.5, lambda0=0.1, warmup_phases=1)
        table = build_increasing_bs_table(spec, plan)
        expected = [0.1] * 4 + [0.15] * 2 + [0.15]
        np.testing.assert_allclose(table.lr, expected, rtol=1e-15)

    def test_warmup_cosine_decays_to_min_after_warmup(self):
        plan = PhasePlan(b0=4, delta=2.0, epochs_per_phase=(2, 2, 2, 2), dataset_size=32)
        spec = plan_spec("warmup", plan, "cosine", gamma=1.5, lambda0=0.1, warmup_phases=1,
                         lambda_min=0.0)
        table = build_increasing_bs_table(spec, plan)
        T_w = plan.warmup_steps(1)
        lam_max = 0.1 * 1.5
        # warm-up part grows by phase
        np.testing.assert_allclose(table.lr[: plan.phase_starts[1]], 0.1)
        np.testing.assert_allclose(table.lr[plan.phase_starts[1] : T_w], lam_max)
        # first post-warm-up epoch restarts the arc at lambda_max (cos 0 = 1)
        assert table.lr[T_w] == pytest.approx(lam_max, rel=1e-15)
        # oracle: global epoch e relative to warm-up end, over remaining epochs
        e_w = plan.warmup_epochs(1)
        e_total = plan.total_epochs
        epochs = plan.step_epochs()
        for t in range(T_w, plan.total_steps):
            arc = (epochs[t] - e_w) * math.pi / (e_total - e_w)
            assert table.lr[t] == pytest.approx(lam_max * (1 + math.cos(arc)) / 2, rel=1e-12)

    def test_decaying_kinds_with_plan(self, rng):
        plan = PhasePlan(b0=8, delta=2.0, epochs_per_phase=(2, 2, 2), dataset_size=32)
        for kind in ("constant", "diminishing", "cosine", "polynomial"):
            spec = plan_spec("increasing-bs", plan, kind, lambda_max=0.5, lambda_min=0.05, p=2.0)
            table = build_increasing_bs_table(spec, plan)
            assert table.T == plan.total_steps
            assert np.all(np.diff(table.lr) <= 1e-15)  # non-increasing
            assert np.all(np.diff(table.batch) >= 0)

    def test_rejects_gamma_at_or_above_delta(self):
        plan = PhasePlan(b0=8, delta=2.0, epochs_per_phase=(1, 1), dataset_size=16)
        with pytest.raises(ScheduleError, match="gamma/delta"):
            build_increasing_bs_table(plan_spec("joint-growth", plan, gamma=2.0, lambda0=0.1),
                                      plan)

    def test_rejects_warmup_beyond_last_phase(self):
        plan = PhasePlan(b0=8, delta=2.0, epochs_per_phase=(1, 1), dataset_size=16)
        spec = plan_spec("warmup", plan, gamma=1.5, lambda0=0.1, warmup_phases=2)
        with pytest.raises(ScheduleError, match="warmup_phases"):
            build_increasing_bs_table(spec, plan)


class TestGrowthConstant:
    def test_constant_is_one(self):
        table = constant_bs_table("constant", batch=1, T=10, lambda_max=0.1)
        assert table.growth_constant_c == 1.0

    def test_diminishing_clamped_at_one(self):
        table = constant_bs_table("diminishing", batch=1, T=50, lambda_max=1.0)
        assert table.growth_constant_c == 1.0

    def test_exp_growth_equals_gamma(self):
        plan = PhasePlan(b0=4, delta=2.0, epochs_per_phase=(1, 1, 1), dataset_size=16)
        table = build_increasing_bs_table(plan_spec("joint-growth", plan, gamma=1.5, lambda0=0.1),
                                          plan)
        assert table.growth_constant_c == pytest.approx(1.5, rel=1e-12)

    def test_zero_before_positive_rejected(self):
        with pytest.raises(ScheduleError, match="undefined"):
            schedules.ScheduleTable(lr=np.array([0.0, 1.0]), batch=np.ones(2))

    def test_trailing_zeros_ok(self):
        table = schedules.ScheduleTable(lr=np.array([1.0, 0.5, 0.0, 0.0]), batch=np.ones(4))
        assert table.growth_constant_c == 1.0


class TestAdmissibility:
    @pytest.mark.pinned
    def test_nshb_bound(self):
        # oracle: (1 - c beta^2)/(L (1 - beta)) = (1 - 0.81)/(10 * 0.1)
        assert admissible_lr_bound(0.9, 10.0, 1.0, "nshb") == pytest.approx(0.19)

    def test_shb_bound_is_tighter(self):
        assert admissible_lr_bound(0.9, 10.0, 1.0, "shb") == pytest.approx(0.019)

    def test_no_momentum_ranges_coincide(self):
        assert admissible_lr_bound(0.0, 1.0, 1.0, "nshb") == 1.0
        assert admissible_lr_bound(0.0, 1.0, 1.0, "shb") == 1.0

    def test_momentum_too_large(self):
        # 1/0.95^2 = 1.108... < 1.2, so no admissible rate exists
        with pytest.raises(MomentumTooLarge, match="1/beta\\^2"):
            admissible_lr_bound(0.95, 1.0, 1.2, "nshb")

    @pytest.mark.pinned
    def test_validate_pass_and_fail(self):
        table = constant_bs_table("constant", batch=4, T=10, lambda_max=0.15)
        ok = validate_admissible(table, beta=0.9, L=10.0, alg="nshb")
        assert ok.admissible and ok.lr_bound == pytest.approx(0.19)
        bad = validate_admissible(table, beta=0.9, L=10.0, alg="shb")
        assert not bad.admissible and bad.lr_bound == pytest.approx(0.019)


class TestSumIdentities:
    def test_cosine_sum_identity(self):
        # sum_{t<KE} cos(floor(t/K) pi / E) == K for every K, E
        for K in range(1, 21):
            for E in range(1, 21):
                total = math.fsum(
                    math.cos(math.floor(t / K) * math.pi / E) for t in range(K * E)
                )
                assert total == pytest.approx(K, abs=1e-9), (K, E)

    def test_polynomial_sum_lower_bound(self):
        for T in (1, 2, 3, 10, 100, 1000):
            for p in (0.5, 1.0, 2.0, 3.0):
                total = math.fsum((1 - t / T) ** p for t in range(T))
                assert total > T / (p + 1), (T, p)

    def test_diminishing_sum_lower_bound(self):
        for T in (1, 2, 5, 50, 1000):
            total = math.fsum(1 / math.sqrt(t + 1) for t in range(T))
            assert total >= 2 * (math.sqrt(T + 1) - 1)


class TestMonotonicity:
    def test_decaying_kinds_non_increasing(self, rng):
        for _ in range(20):
            lr = random_decaying_lr(rng)
            if lr["kind"] == "cosine":
                K, E = int(rng.integers(1, 8)), int(rng.integers(1, 8))
                table = constant_bs_table(batch=1, T=K * E, dataset_size=K, **lr)
            else:
                table = constant_bs_table(batch=1, T=int(rng.integers(1, 200)), **lr)
            assert np.all(np.diff(table.lr) <= 1e-15), lr

    def test_warmup_monotone_around_T_w(self, rng):
        for kind in ("constant", "cosine"):
            plan = PhasePlan(**random_plan(rng, max_M=4))
            Mw = int(rng.integers(0, plan.M + 1))
            spec = plan_spec("warmup", plan, kind, gamma=min(1.2, (plan.delta + 1) / 2),
                             lambda0=0.05, warmup_phases=Mw, lambda_min=0.0)
            table = build_increasing_bs_table(spec, plan)
            T_w = plan.warmup_steps(Mw)
            diffs = np.diff(table.lr)
            assert np.all(diffs[: T_w - 1] >= -1e-15)  # non-decreasing before T_w
            assert np.all(diffs[T_w - 1 :] <= 1e-15)  # non-increasing from T_w on

    def test_warmup_cosine_tail_starts_at_the_last_warmup_rate(self):
        # numpy's power and Python's ** may round gamma^M_w differently (1.2^4
        # is 2.0735999999999994 by one, 2.0736 by the other on AVX-512); the
        # tail must start from the table's own last warm-up rate, not above it
        plan = PhasePlan(b0=1, delta=2.0, epochs_per_phase=(1, 1, 1, 1, 1, 2), dataset_size=32)
        spec = plan_spec("warmup", plan, "cosine", gamma=1.2, lambda0=1.0, warmup_phases=4,
                         lambda_min=0.0)
        lr = build_increasing_bs_table(spec, plan).lr
        T_w = plan.warmup_steps(4)
        assert lr[T_w] == lr[T_w - 1]
        assert np.all(np.diff(lr[T_w - 1 :]) <= 0)

    def test_batches_non_decreasing(self, rng):
        for _ in range(20):
            plan = PhasePlan(**random_plan(rng))
            table = build_increasing_bs_table(
                plan_spec("increasing-bs", plan, lambda_max=0.1), plan
            )
            assert np.all(np.diff(table.batch) >= 0)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, rng):
        plan = PhasePlan(**random_plan(rng))
        table = build_increasing_bs_table(
            plan_spec("joint-growth", plan, gamma=1.25, lambda0=0.0123456789012345), plan
        ) if plan.delta > 1.25 else constant_bs_table("diminishing", batch=3, T=17,
                                                      lambda_max=0.777)
        header, *rows = table_to_csv(table).splitlines()
        assert header == "t,lr,batch"
        t, lr, batch = zip(*(row.split(",") for row in rows))
        assert [int(s) for s in t] == list(range(table.T))
        np.testing.assert_array_equal([float(s) for s in lr], table.lr)
        np.testing.assert_array_equal([int(s) for s in batch], table.batch)

    # First 16 hex digits of the SHA-256 of table_to_csv for every kind
    # through each builder; a change here must be deliberate.
    @pytest.mark.pinned
    @pytest.mark.parametrize("builder, kind, lr_args, expected", [
        ("constant-bs", "constant", {}, "bc1492750d86caf3"),
        ("constant-bs", "diminishing", {}, "632d2935f4d17bec"),
        ("constant-bs", "cosine", {}, "0c9e2c364e255d24"),
        ("constant-bs", "polynomial", {}, "4da6318f21588012"),
        ("increasing-bs", "constant", {}, "99ff5dc42ee5153b"),
        ("increasing-bs", "diminishing", {}, "c8029da03929c82e"),
        ("increasing-bs", "cosine", {}, "811e841779edb084"),
        ("increasing-bs", "polynomial", {}, "b2e10960952328e3"),
        ("increasing-bs", "exp_growth", {}, "eccb65751b59f38a"),
        ("increasing-bs", "warmup_constant", {"warmup_phases": 1}, "43a48ca5427519bb"),
        ("increasing-bs", "warmup_cosine", {"warmup_phases": 0}, "03b043da791c302b"),
        ("increasing-bs", "warmup_cosine", {"warmup_phases": 1}, "7fe9f9c113e8b7c2"),
        ("increasing-bs", "warmup_cosine", {"warmup_phases": 2}, "eccb65751b59f38a"),
    ])
    def test_table_bytes_are_pinned(self, builder, kind, lr_args, expected):
        if kind in schedules.DECAYING_KINDS:
            rates = dict(kind=kind, lambda_max=0.37, lambda_min=0.013, p=1.7)
        else:  # exp_growth names joint-growth (which ignores kind), warmup_<kind> warmup
            builder = "joint-growth" if kind == "exp_growth" else "warmup"
            rates = dict(kind=kind.removeprefix("warmup_"), gamma=1.3, lambda0=0.02,
                         lambda_min=0.001, **lr_args)
        if builder == "constant-bs":
            spec = ScheduleSpec(builder, batch=4, T=24, dataset_size=16, **rates)
        else:
            spec = ScheduleSpec(builder, b0=3, delta=1.7, epochs_per_phase=(2, 1, 3),
                                dataset_size=20, **rates)
        table = spec.build(problem_n=None)[0]
        digest = hashlib.sha256(table_to_csv(table).encode()).hexdigest()[:16]
        assert digest == expected


class TestTableImmutability:
    def test_length_is_the_table_length(self):
        table = schedules.ScheduleTable(lr=[0.3, 0.2, 0.1], batch=[1, 2, 4])
        assert table.T == 3 and isinstance(table.T, int)

    def test_empty_table_refused(self):
        with pytest.raises(ScheduleError, match="at least one step"):
            schedules.ScheduleTable(lr=[], batch=[])

    def test_length_is_not_an_argument(self):
        with pytest.raises(TypeError):
            schedules.ScheduleTable(lr=[0.1], batch=[1], T=1)

    def test_arrays_read_only(self):
        table = constant_bs_table("constant", batch=1, T=4, lambda_max=0.1)
        with pytest.raises(ValueError):
            table.lr[0] = 99.0
        with pytest.raises(ValueError):
            table.batch[0] = 99
