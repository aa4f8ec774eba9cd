"""Unit tests for the vehicle state primitives."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.state import (
    AttitudeState,
    VehicleState,
    euclidean_distance,
    vector_norm,
    vector_sub,
    wrap_angle,
)


class TestVectorHelpers:
    def test_sub_is_componentwise(self):
        assert vector_sub((1.0, -2.0, 3.5), (0.5, 4.0, -1.0)) == (0.5, -6.0, 4.5)

    def test_norm_of_unit_vectors(self):
        assert vector_norm((1.0, 0.0, 0.0)) == pytest.approx(1.0)
        assert vector_norm((0.0, 3.0, 4.0)) == pytest.approx(5.0)

    def test_euclidean_distance_symmetry(self):
        a = (1.0, 2.0, 3.0)
        b = (-4.0, 0.0, 7.0)
        assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))

    def test_euclidean_distance_zero_for_identical_points(self):
        assert euclidean_distance((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)) == 0.0


class TestWrapAngle:
    def test_wraps_above_pi(self):
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)

    def test_wraps_below_minus_pi(self):
        assert wrap_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)

    def test_identity_inside_range(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)

    def test_multiple_of_two_pi(self):
        assert wrap_angle(6.0 * math.pi) == pytest.approx(0.0, abs=1e-9)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_matches_the_per_call_constants_bit_for_bit(self, angle):
        wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
        if wrapped <= 0.0:
            wrapped += 2.0 * math.pi
        assert wrap_angle(angle).hex() == (wrapped - math.pi).hex()


class TestAttitudeState:
    def test_as_tuple(self):
        attitude = AttitudeState(roll=0.1, pitch=-0.2, yaw=1.0)
        assert attitude.as_tuple() == (0.1, -0.2, 1.0)


class TestVehicleState:
    def test_altitude_and_speeds(self):
        state = VehicleState(
            position=(3.0, 4.0, 10.0), velocity=(3.0, 4.0, -1.0)
        )
        assert state.altitude == 10.0
        assert state.ground_speed == pytest.approx(5.0)
        assert state.climb_rate == -1.0

    def test_heading_comes_from_attitude(self):
        state = VehicleState(attitude=AttitudeState(yaw=0.7))
        assert state.heading == pytest.approx(0.7)

    def test_horizontal_distance(self):
        state = VehicleState(position=(3.0, 4.0, 12.0))
        assert state.horizontal_distance_to((0.0, 0.0, 0.0)) == pytest.approx(5.0)

    def test_states_are_immutable(self):
        # A copy with one field changed is ``_replace``.
        state = VehicleState()
        with pytest.raises(AttributeError):
            state.time = 4.0
        with pytest.raises(AttributeError):
            state.attitude.yaw = 1.0
        moved = state._replace(time=4.0, armed=True)
        assert (moved.time, moved.armed) == (4.0, True)
        assert (state.time, state.armed) == (0.0, False)
