# repro-lint: module=repro.sim.fixture_clean
"""Known-good: every house pattern done right -- zero findings.

A seeded RNG instance and a None-gated obs runtime.
"""

import random

from repro.obs import runtime as obs_runtime


def noise_stream(seed: int) -> random.Random:
    return random.Random(seed)


def record_step(step: int) -> None:
    obs = obs_runtime.current()
    if obs is not None:
        obs.metrics.counter("steps").inc(step)
