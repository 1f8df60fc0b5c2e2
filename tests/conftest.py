"""Fixtures shared by the test modules."""

import random

import pytest

import bci.verify


@pytest.fixture
def ode_draws():
    """The ode check's draws over seeds 4000-4029, 360 instances, drawn from
    the "<seed>:ode" streams as run_verify draws them; a fresh list per test."""
    draws = (bci.verify._instances(random.Random(f"{seed}:ode"), None, 12) for seed in range(4000, 4030))
    return [inst for insts in draws for inst in insts]
