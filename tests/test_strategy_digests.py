"""Recorded campaign digests: every strategy's proposals, pinned.

Each digest hashes one campaign: its scenario strings in order, their
verdicts, and the budget's spent units, labels and simulations.  The
values were recorded from the strategies' hand-written sequential
``explore()`` loops (before those loops were folded into the one
base-class ``explore()`` that drives ``propose_batch`` at batch size
one), so they pin today's proposers to the old loops.  Both drivers must
reproduce every digest: ``explore()`` (batch 1) and the batched path at
``DEFAULT_BATCH_SIZE`` (the campaign engine on the real simulator, the
engine's propose/run/ingest loop on the stub fault space).

Real simulator: every ``api.STRATEGIES`` entry on the short ArduPilot
and PX4 waypoint missions, budget 4.  Stub fault space (the
``test_sabre_strategies`` stub session): budgets 4/16/64, latched only
and with 2 s bursts for the strategies that sweep burst windows.
"""

import hashlib
import json

import pytest

from conftest import drive_strategy
from test_sabre_strategies import StubRunner, make_session

from repro.core.avis import Avis
from repro.core.runner import TestRunner
from repro.core.session import BudgetAccount, ExplorationSession
from repro.engine.api import BURST_STRATEGIES, STRATEGIES
from repro.engine.campaign import DEFAULT_BATCH_SIZE
from repro.sensors.suite import iris_sensor_suite


def campaign_digest(results, spent_units, labels, simulations) -> str:
    payload = json.dumps(
        {
            "scenarios": [str(result.scenario) for result in results],
            "verdicts": [result.found_unsafe_condition for result in results],
            "spent_units": repr(float(spent_units)),
            "labels": labels,
            "simulations": simulations,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def session_digest(session: ExplorationSession) -> str:
    budget = session.budget
    return campaign_digest(
        session.results, budget.spent_units, budget.labels, budget.simulations
    )


REAL_BUDGET = 4.0

#: (firmware, strategy) -> digest, short waypoint missions, budget 4.
REAL_DIGESTS = {
    ('ardupilot', 'avis'): '636b263f4d7bf3da9ec1',
    ('ardupilot', 'bfi'): '31387b54531f183885ac',
    ('ardupilot', 'breadth-first'): '7f726e4513d427b2770d',
    ('ardupilot', 'depth-first'): '7c59c1d9d1beda867afc',
    ('ardupilot', 'random'): '505b5cb9aed6a53c49c5',
    ('ardupilot', 'stratified-bfi'): '65ae67305d474b259852',
    ('px4', 'avis'): '79fd86786b28b79a8d07',
    ('px4', 'bfi'): 'fc1b8d59c9037482c52f',
    ('px4', 'breadth-first'): '7f726e4513d427b2770d',
    ('px4', 'depth-first'): '8a12e0e646760318d4d8',
    ('px4', 'random'): '30f2ddd64f73299ae3d6',
    ('px4', 'stratified-bfi'): '65ae67305d474b259852',
}

#: (strategy, budget, burst durations) -> digest on the stub session.
STUB_DIGESTS = {
    ('avis', 4.0, ()): '5ee5f902c0f963476d3e',
    ('avis', 4.0, (2.0,)): '5ee5f902c0f963476d3e',
    ('avis', 16.0, ()): '9dfb2b73e9c52dc67ebb',
    ('avis', 16.0, (2.0,)): '9dfb2b73e9c52dc67ebb',
    ('avis', 64.0, ()): 'cbc602eed05d0d4ca715',
    ('avis', 64.0, (2.0,)): 'cbc602eed05d0d4ca715',
    ('bfi', 4.0, ()): '0e61679784cfd17d2762',
    ('bfi', 4.0, (2.0,)): '0e61679784cfd17d2762',
    ('bfi', 16.0, ()): '15e9c9145010b8d077a9',
    ('bfi', 16.0, (2.0,)): '15e9c9145010b8d077a9',
    ('bfi', 64.0, ()): '9986ee293887855ef4f0',
    ('bfi', 64.0, (2.0,)): '2edde08959d7624357d8',
    ('breadth-first', 4.0, ()): '7f726e4513d427b2770d',
    ('breadth-first', 16.0, ()): '4b241f8b6d7c4ad00f83',
    ('breadth-first', 64.0, ()): '0820ff6d5de0669fa52c',
    ('depth-first', 4.0, ()): 'd7063f7f7a007760338e',
    ('depth-first', 16.0, ()): '2c5dcdf1b77aff66956f',
    ('depth-first', 64.0, ()): 'aea31da5a4c9a0a76aa8',
    ('random', 4.0, ()): '1f883586c96ce9205191',
    ('random', 16.0, ()): '8dc9dd1a8f8aa49e8514',
    ('random', 64.0, ()): '58f4d0019492c9814949',
    ('stratified-bfi', 4.0, ()): 'c7dd4514848ea9c50018',
    ('stratified-bfi', 4.0, (2.0,)): 'c7dd4514848ea9c50018',
    ('stratified-bfi', 16.0, ()): '2aedc9e0cde1cfc3bbb4',
    ('stratified-bfi', 16.0, (2.0,)): '75c4b09cce3cc26c9c3a',
    ('stratified-bfi', 64.0, ()): 'c853c92a17a361c2c19d',
    ('stratified-bfi', 64.0, (2.0,)): '549fc54da6c87e606e41',
}

STUB_CASES = [
    (name, budget, bursts)
    for name in sorted(STRATEGIES)
    for budget in (4.0, 16.0, 64.0)
    for bursts in ((), (2.0,))
    if not bursts or name in BURST_STRATEGIES
]


def make_strategy(name, bursts=()):
    if bursts:
        return STRATEGIES[name](burst_durations=bursts)
    return STRATEGIES[name]()


@pytest.fixture(scope="module")
def px4_waypoint_avis(short_px4_config) -> Avis:
    avis = Avis(short_px4_config, profiling_runs=2)
    avis.profile()
    return avis


@pytest.fixture
def profiled(waypoint_avis, px4_waypoint_avis):
    return {"ardupilot": waypoint_avis, "px4": px4_waypoint_avis}


def real_session(avis: Avis) -> ExplorationSession:
    """A session built the way ``Avis.check`` builds one."""
    return ExplorationSession(
        runner=TestRunner(avis.config, monitor=avis.monitor),
        budget=BudgetAccount(total_units=REAL_BUDGET),
        profiling_run=avis.profiling_results[0],
        suite=iris_sensor_suite(noise_seed=avis.config.noise_seed),
    )


REAL_CASES = [
    (firmware, name) for firmware in ("ardupilot", "px4") for name in sorted(STRATEGIES)
]


class TestRecordedDigests:
    @pytest.mark.parametrize(
        "firmware, name", REAL_CASES, ids=[f"{f}-{n}" for f, n in REAL_CASES]
    )
    def test_explore_matches_recorded_digest(self, profiled, firmware, name):
        session = real_session(profiled[firmware])
        make_strategy(name).explore(session)
        assert session_digest(session) == REAL_DIGESTS[(firmware, name)]

    @pytest.mark.parametrize(
        "firmware, name", REAL_CASES, ids=[f"{f}-{n}" for f, n in REAL_CASES]
    )
    def test_engine_matches_recorded_digest(self, profiled, firmware, name):
        source = profiled[firmware]
        avis = Avis(source.config, profiling_runs=2)
        avis.calibrate(source.profiling_results)
        campaign = avis.check(strategy=make_strategy(name), budget_units=REAL_BUDGET)
        digest = campaign_digest(
            campaign.results,
            campaign.budget_spent,
            campaign.labels,
            campaign.simulations,
        )
        assert digest == REAL_DIGESTS[(firmware, name)]

    @pytest.mark.parametrize(
        "name, budget, bursts",
        STUB_CASES,
        ids=[f"{n}-{b:g}-{'burst' if d else 'latched'}" for n, b, d in STUB_CASES],
    )
    @pytest.mark.parametrize("batch_size", [1, DEFAULT_BATCH_SIZE])
    def test_stub_campaign_matches_recorded_digest(
        self, name, budget, bursts, batch_size
    ):
        session = make_session(budget_units=budget, runner=StubRunner())
        strategy = make_strategy(name, bursts)
        if batch_size == 1:
            strategy.explore(session)
        else:
            drive_strategy(strategy, session, batch_size)
        assert session_digest(session) == STUB_DIGESTS[(name, budget, bursts)]
