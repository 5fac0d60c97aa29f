"""Schedule construction, phase bookkeeping, growth constant, admissibility."""

import hashlib
import math
import re
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest

from sgdm_sched import schedules
from sgdm_sched.schedules import (
    MomentumTooLarge,
    ScheduleError,
    ScheduleSpec,
    admissible_lr_bound,
    table_to_csv,
    validate_admissible,
)

from conftest import constant_bs_table, random_decaying_lr, random_plan


def phase_build(regime, kind="constant", **fields):
    """(table, symbols) of a phase-regime spec, built without a problem."""
    table, _, symbols = ScheduleSpec(regime, kind, **fields).build(problem_n=None)
    return table, symbols


def loop_oracle(b0, delta, epochs_per_phase, dataset_size):
    """Per-step batch and global epoch, K_m and each phase's start, by a plain
    loop over phases and epochs; batches round half up in exact decimal."""
    batch, epoch, K, starts = [], [], [], []
    e = 0
    for m, E in enumerate(epochs_per_phase):
        b = max(1, int(Decimal(delta**m * b0).quantize(Decimal(1), ROUND_HALF_UP)))
        K.append(-(-dataset_size // b))
        starts.append(len(batch))
        for _ in range(E):
            batch += [b] * K[-1]
            epoch += [e] * K[-1]
            e += 1
    return batch, epoch, K, starts


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
        table, symbols = phase_build("increasing-bs", b0=8, delta=2.0,
                                     epochs_per_phase=(1, 1, 1), dataset_size=32)
        np.testing.assert_array_equal(table.batch, [8, 8, 8, 8, 16, 16, 32])
        np.testing.assert_array_equal(np.flatnonzero(np.diff(table.batch)) + 1, [4, 6])
        assert (symbols["K_max"], symbols["K_min"], symbols["M"], symbols["T"]) == (4, 1, 2, 7)

    def test_bookkeeping_matches_a_loop_oracle(self, rng):
        for _ in range(200):
            plan = random_plan(rng)
            regime = str(rng.choice(["increasing-bs", "joint-growth", "warmup"]))
            M = len(plan["epochs_per_phase"]) - 1
            Mw = int(rng.integers(0, M + 1))
            rates = {} if regime == "increasing-bs" else dict(
                gamma=min(1.2, (plan["delta"] + 1) / 2), lambda0=0.05)
            if regime == "warmup":
                rates["warmup_phases"] = Mw
            table, symbols = phase_build(regime, **plan, **rates)
            batch, _, K, starts = loop_oracle(**plan)
            np.testing.assert_array_equal(table.batch, batch)
            assert symbols["T"] == table.T == len(batch)
            E = plan["epochs_per_phase"]
            assert (symbols["K_max"], symbols["K_min"]) == (max(K), min(K))
            assert (symbols["E_max"], symbols["E_min"], symbols["M"]) == (max(E), min(E), M)
            if regime == "warmup":
                assert symbols["T_w"] == (starts + [len(batch)])[Mw + 1]
            # a phase starts where the batch changes, unless it rounds to the
            # previous phase's batch
            changes = [s for s in starts[1:] if batch[s] != batch[s - 1]]
            np.testing.assert_array_equal(np.flatnonzero(np.diff(table.batch)) + 1, changes)

    def test_rejects_batch_beyond_dataset(self):
        with pytest.raises(ScheduleError, match="final-phase batch size 32 exceeds dataset size 31"):
            phase_build("increasing-bs", b0=8, delta=2.0, epochs_per_phase=(1, 1, 1),
                        dataset_size=31)

    def test_rejects_bad_delta(self):
        with pytest.raises(ScheduleError, match="batch growth factor delta must be > 1, got 1.0"):
            phase_build("increasing-bs", b0=8, delta=1.0, epochs_per_phase=(1,), dataset_size=8)

    def test_non_integer_growth_rounds(self):
        table, _ = phase_build("increasing-bs", b0=10, delta=1.5, epochs_per_phase=(1, 1, 1),
                               dataset_size=23)
        assert np.unique(table.batch).tolist() == [10, 15, 23]  # 22.5 rounds half-up

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

    def test_refuses_a_problem_n_that_is_not_whole(self):
        spec = ScheduleSpec("increasing-bs", b0=4, delta=2.0, epochs_per_phase=(1, 1))
        with pytest.raises(ValueError, match="dataset_size must be a whole number, got 40.5"):
            spec.build(40.5)

    @pytest.mark.parametrize("regime, fields", [
        ("constant-bs", dict(kind="cosine", batch=8, T=10)),
        ("constant-bs", dict(kind="diminishing", batch=8, T=6)),
        ("increasing-bs", dict(b0=4, delta=2.0, epochs_per_phase=(1, 1))),
        ("joint-growth", dict(gamma=1.5, lambda0=0.1, b0=4, delta=2.0, epochs_per_phase=(1, 1))),
        ("warmup", dict(gamma=1.5, lambda0=0.1, warmup_phases=0, b0=4, delta=2.0,
                        epochs_per_phase=(1, 1))),
    ])
    def test_every_regime_counts_a_problem_n(self, regime, fields):
        # 40.5 would make a cosine epoch ceil(40.5/8) = 6 steps; every regime
        # refuses it, whether or not its table reads n, and 40.0 counts as 40
        spec = ScheduleSpec(regime, **fields)
        with pytest.raises(ValueError, match="dataset_size must be a whole number, got 40.5"):
            spec.build(40.5)
        (table, corollary, symbols), ref = spec.build(40.0), spec.build(40)
        np.testing.assert_array_equal(table.lr, ref[0].lr)
        np.testing.assert_array_equal(table.batch, ref[0].batch)
        assert (corollary, symbols) == ref[1:]


DOUBLING = dict(b0=8, delta=2.0, epochs_per_phase=(1, 1, 1), dataset_size=32)


class TestIncreasingBatchTables:
    def test_exp_growth_lr_per_phase(self):
        table, _ = phase_build("joint-growth", gamma=1.5, lambda0=0.1, **DOUBLING)
        # oracle: gamma^m * lambda0 per phase
        expected = [0.1] * 4 + [0.1 * 1.5] * 2 + [0.1 * 1.5**2]
        np.testing.assert_allclose(table.lr, expected, rtol=1e-15)
        assert expected[4] == pytest.approx(0.15) and expected[6] == pytest.approx(0.225)

    def test_warmup_constant_freezes_after_warmup(self):
        table, _ = phase_build("warmup", gamma=1.5, lambda0=0.1, warmup_phases=1, **DOUBLING)
        expected = [0.1] * 4 + [0.15] * 2 + [0.15]
        np.testing.assert_allclose(table.lr, expected, rtol=1e-15)

    def test_warmup_cosine_decays_to_min_after_warmup(self):
        plan = dict(b0=4, delta=2.0, epochs_per_phase=(2, 2, 2, 2), dataset_size=32)
        table, symbols = phase_build("warmup", "cosine", gamma=1.5, lambda0=0.1,
                                     warmup_phases=1, lambda_min=0.0, **plan)
        _, epochs, _, starts = loop_oracle(**plan)
        T_w = symbols["T_w"]
        assert T_w == starts[2]
        lam_max = 0.1 * 1.5
        # warm-up part grows by phase
        np.testing.assert_allclose(table.lr[: starts[1]], 0.1)
        np.testing.assert_allclose(table.lr[starts[1] : T_w], lam_max)
        # first post-warm-up epoch restarts the arc at lambda_max (cos 0 = 1)
        assert table.lr[T_w] == pytest.approx(lam_max, rel=1e-15)
        # oracle: global epoch e relative to warm-up end, over remaining epochs
        e_w, e_total = 4, 8
        for t in range(T_w, table.T):
            arc = (epochs[t] - e_w) * math.pi / (e_total - e_w)
            assert table.lr[t] == pytest.approx(lam_max * (1 + math.cos(arc)) / 2, rel=1e-12)

    def test_decaying_kinds_with_plan(self, rng):
        plan = dict(b0=8, delta=2.0, epochs_per_phase=(2, 2, 2), dataset_size=32)
        for kind in ("constant", "diminishing", "cosine", "polynomial"):
            table, symbols = phase_build("increasing-bs", kind, lambda_max=0.5,
                                         lambda_min=0.05, p=2.0, **plan)
            assert table.T == symbols["T"] == 14
            assert np.all(np.diff(table.lr) <= 1e-15)  # non-increasing
            assert np.all(np.diff(table.batch) >= 0)

    def test_rejects_gamma_at_or_above_delta(self):
        with pytest.raises(ScheduleError, match="need gamma < delta so that gamma/delta < 1"):
            phase_build("joint-growth", gamma=2.0, lambda0=0.1, b0=8, delta=2.0,
                        epochs_per_phase=(1, 1), dataset_size=16)

    def test_rejects_warmup_beyond_last_phase(self):
        with pytest.raises(ScheduleError,
                           match="warmup_phases=2 exceeds the plan's last phase index M=1"):
            phase_build("warmup", gamma=1.5, lambda0=0.1, warmup_phases=2, b0=8, delta=2.0,
                        epochs_per_phase=(1, 1), dataset_size=16)


class TestGrowthConstant:
    def test_constant_is_one(self):
        table = constant_bs_table("constant", batch=1, T=10, lambda_max=0.1)
        assert table.growth_constant_c == 1.0

    def test_diminishing_clamped_at_one(self):
        table = constant_bs_table("diminishing", batch=1, T=50, lambda_max=1.0)
        assert table.growth_constant_c == 1.0

    def test_exp_growth_equals_gamma(self):
        table, _ = phase_build("joint-growth", gamma=1.5, lambda0=0.1, b0=4, delta=2.0,
                               epochs_per_phase=(1, 1, 1), dataset_size=16)
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

    @pytest.mark.pinned
    def test_shb_bound_is_tighter(self):
        # oracle: (1 - c beta^2)/L = (1 - 0.81)/10
        assert admissible_lr_bound(0.9, 10.0, 1.0, "shb") == pytest.approx(0.019)

    def test_no_momentum_ranges_coincide(self):
        assert admissible_lr_bound(0.0, 1.0, 1.0, "nshb") == 1.0
        assert admissible_lr_bound(0.0, 1.0, 1.0, "shb") == 1.0

    def test_momentum_too_large(self):
        # 1/0.95^2 = 1.108... < 1.2, so no admissible rate exists
        with pytest.raises(MomentumTooLarge, match="1/beta\\^2"):
            admissible_lr_bound(0.95, 1.0, 1.2, "nshb")

    def test_nan_growth_constant_refused(self):
        with pytest.raises(ScheduleError, match="growth constant must be >= 1, got nan"):
            admissible_lr_bound(0.5, 1.0, math.nan, "nshb")

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
            plan = random_plan(rng, max_M=4)
            Mw = int(rng.integers(0, len(plan["epochs_per_phase"])))
            table, symbols = phase_build("warmup", kind, gamma=min(1.2, (plan["delta"] + 1) / 2),
                                         lambda0=0.05, warmup_phases=Mw, lambda_min=0.0, **plan)
            T_w = symbols["T_w"]
            diffs = np.diff(table.lr)
            assert np.all(diffs[: T_w - 1] >= -1e-15)  # non-decreasing before T_w
            assert np.all(diffs[T_w - 1 :] <= 1e-15)  # non-increasing from T_w on

    def test_warmup_cosine_tail_starts_at_the_last_warmup_rate(self):
        # numpy's power and Python's ** may round gamma^M_w differently (1.2^4
        # is 2.0735999999999994 by one, 2.0736 by the other on AVX-512); the
        # tail must start from the table's own last warm-up rate, not above it
        table, symbols = phase_build("warmup", "cosine", gamma=1.2, lambda0=1.0, warmup_phases=4,
                                     lambda_min=0.0, b0=1, delta=2.0,
                                     epochs_per_phase=(1, 1, 1, 1, 1, 2), dataset_size=32)
        lr, T_w = table.lr, symbols["T_w"]
        assert lr[T_w] == lr[T_w - 1]
        assert np.all(np.diff(lr[T_w - 1 :]) <= 0)

    def test_batches_non_decreasing(self, rng):
        for _ in range(20):
            table, _ = phase_build("increasing-bs", lambda_max=0.1, **random_plan(rng))
            assert np.all(np.diff(table.batch) >= 0)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, rng):
        plan = random_plan(rng)
        table = phase_build(
            "joint-growth", gamma=1.25, lambda0=0.0123456789012345, **plan
        )[0] if plan["delta"] > 1.25 else constant_bs_table("diminishing", batch=3, T=17,
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

    @pytest.mark.parametrize("batch, bad", [([2.5, 3.7], 2.5), ([2.0, math.nan], math.nan),
                                            ([1e30, 2.0], 1e30), ([1.0, 0.0], 0.0),
                                            (["2", "3"], "2")])
    def test_batch_entries_must_be_whole_numbers(self, batch, bad):
        # 2.5 would be stored as batch 2; NaN and 1e30 fail numpy's int cast
        with pytest.raises(ScheduleError, match=re.escape(
                f"batch sizes must be positive integers, got {bad!r}")):
            schedules.ScheduleTable(lr=[0.1, 0.1], batch=batch)

    def test_whole_float_batches_are_their_ints(self):
        table = schedules.ScheduleTable(lr=[0.1, 0.1], batch=[2.0, np.float32(3.0)])
        assert table.batch.dtype == np.int64 and table.batch.tolist() == [2, 3]

    def test_length_is_not_an_argument(self):
        with pytest.raises(TypeError):
            schedules.ScheduleTable(lr=[0.1], batch=[1], T=1)

    def test_arrays_read_only(self):
        table = constant_bs_table("constant", batch=1, T=4, lambda_max=0.1)
        with pytest.raises(ValueError):
            table.lr[0] = 99.0
        with pytest.raises(ValueError):
            table.batch[0] = 99
