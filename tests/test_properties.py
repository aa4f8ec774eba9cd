"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import figure6_pruning_counts
from repro.core.session import BudgetAccount
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.sensors.base import SensorId, SensorType
from repro.sim.state import euclidean_distance, wrap_angle

sensor_types = st.sampled_from(list(SensorType))
sensor_ids = st.builds(SensorId, sensor_type=sensor_types, instance=st.integers(0, 3))
fault_specs = st.builds(
    FaultSpec,
    sensor_id=sensor_ids,
    start_time=st.floats(0.0, 120.0, allow_nan=False, allow_infinity=False),
)
fault_lists = st.lists(fault_specs, max_size=6)


class TestAngleProperties:
    @given(st.floats(-1000.0, 1000.0))
    def test_wrap_angle_stays_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi + 1e-9

    @given(st.floats(-math.pi + 1e-6, math.pi - 1e-6))
    def test_wrap_angle_is_identity_inside_range(self, angle):
        assert wrap_angle(angle) == pytest_approx(angle)

    @given(st.floats(-100.0, 100.0), st.integers(-5, 5))
    def test_wrap_angle_invariant_to_full_turns(self, angle, turns):
        assert abs(wrap_angle(angle) - wrap_angle(angle + turns * 2.0 * math.pi)) < 1e-6


def pytest_approx(value, tolerance=1e-9):
    class _Approx:
        def __eq__(self, other):
            return abs(other - value) <= tolerance

    return _Approx()


class TestDistanceProperties:
    coordinates = st.tuples(
        st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)
    )

    @given(coordinates, coordinates)
    def test_symmetry(self, a, b):
        assert euclidean_distance(a, b) == euclidean_distance(b, a)

    @given(coordinates)
    def test_identity(self, a):
        assert euclidean_distance(a, a) == 0.0

    @given(coordinates, coordinates, coordinates)
    def test_triangle_inequality(self, a, b, c):
        assert euclidean_distance(a, c) <= (
            euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-6
        )


class TestFaultScenarioProperties:
    @given(fault_lists)
    def test_equality_is_order_independent(self, faults):
        assert FaultScenario(faults) == FaultScenario(list(reversed(faults)))
        assert hash(FaultScenario(faults)) == hash(FaultScenario(list(reversed(faults))))

    @given(fault_lists)
    def test_length_never_exceeds_input(self, faults):
        scenario = FaultScenario(faults)
        assert len(scenario) <= len(faults)
        assert len(scenario) == len(set(faults))

    @given(fault_lists, fault_lists)
    def test_extended_is_superset(self, first, second):
        base = FaultScenario(first)
        extended = base.extended(second)
        assert set(base) <= set(extended)

    @given(fault_lists, st.floats(0.0, 50.0, allow_nan=False))
    def test_shifted_preserves_size_and_clamps_to_zero(self, faults, offset):
        scenario = FaultScenario(faults)
        shifted = scenario.shifted(-offset)
        assert len(shifted) <= len(scenario)
        assert all(fault.start_time >= 0.0 for fault in shifted)

    @given(fault_lists)
    def test_should_fail_consistent_with_fault_for(self, faults):
        scenario = FaultScenario(faults)
        for fault in scenario:
            assert scenario.should_fail(fault.sensor_id, fault.start_time + 0.001)


class TestSymmetryProperties:
    @given(st.integers(1, 8))
    def test_enumerated_figure6_row_matches_the_closed_forms(self, instances):
        row = figure6_pruning_counts(instances)[-1]
        assert row == (instances, instances * (2**instances - 1), 2 * instances - 1)


class TestBudgetProperties:
    @given(
        st.floats(1.0, 200.0, allow_nan=False),
        st.integers(0, 50),
        st.integers(0, 200),
    )
    @settings(max_examples=50)
    def test_spent_matches_charges(self, total, simulations, labels):
        budget = BudgetAccount(total_units=total, simulation_cost=1.0, labelling_cost=0.15)
        for _ in range(simulations):
            budget.charge_simulation()
        for _ in range(labels):
            budget.charge_label()
        assert budget.simulations == simulations
        assert budget.labels == labels
        assert budget.spent_units == pytest_approx(simulations * 1.0 + labels * 0.15, 1e-6)
        assert budget.remaining_units >= 0.0
