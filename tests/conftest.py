"""Shared builders for randomized schedule/problem test inputs."""

import numpy as np
import pytest

from sgdm_sched.schedules import ScheduleSpec


def constant_bs_table(kind, batch, T, dataset_size=None, **rates):
    """The constant-bs table of one decaying kind, through ScheduleSpec.build."""
    spec = ScheduleSpec("constant-bs", kind, batch=batch, T=T, dataset_size=dataset_size, **rates)
    return spec.build(problem_n=None)[0]


def random_plan(rng, max_M: int = 5) -> dict:
    """ScheduleSpec phase-plan fields, M >= 1, whose final batch fits the dataset."""
    b0 = int(rng.integers(1, 17))
    delta = float(rng.uniform(1.3, 3.0))
    M = int(rng.integers(1, max_M + 1))
    epochs = tuple(int(e) for e in rng.integers(1, 5, size=M + 1))
    # dataset must fit the final batch, round(delta^M * b0)
    b_last = max(1, int(round(delta**M * b0)))
    n = int(b_last * rng.integers(1, 5) + rng.integers(0, 7))
    return dict(b0=b0, delta=delta, epochs_per_phase=epochs, dataset_size=n)


def random_decaying_lr(rng) -> dict:
    """ScheduleSpec rate fields of a random decaying kind."""
    kind = str(rng.choice(["constant", "diminishing", "cosine", "polynomial"]))
    lambda_max = float(rng.uniform(0.01, 2.0))
    lambda_min = float(rng.uniform(0.0, lambda_max)) if kind in ("cosine", "polynomial") else 0.0
    p = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
    return dict(kind=kind, lambda_max=lambda_max, lambda_min=lambda_min, p=p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
