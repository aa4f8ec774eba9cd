"""Unit tests for the environment model."""

import pytest

from repro.sim.environment import (
    Environment,
    FenceRegion,
    GeoLocation,
    Obstacle,
    Wind,
    default_environment,
    fenced_environment,
)


class TestObstacle:
    def test_contains_inside_and_outside(self):
        tree = Obstacle("tree", 10.0, 10.0, 2.0, 2.0, 8.0)
        assert tree.contains((10.0, 10.0, 4.0))
        assert not tree.contains((10.0, 10.0, 9.0))
        assert not tree.contains((20.0, 10.0, 4.0))

    def test_horizontal_distance(self):
        tree = Obstacle("tree", 0.0, 0.0, 1.0, 1.0, 5.0)
        assert tree.horizontal_distance((4.0, 0.0, 1.0)) == pytest.approx(3.0)
        assert tree.horizontal_distance((0.5, 0.5, 1.0)) == 0.0


class TestFenceRegion:
    def test_contains(self):
        fence = FenceRegion("nofly", 10.0, 20.0, 10.0, 20.0)
        assert fence.contains((15.0, 15.0, 5.0))
        assert not fence.contains((5.0, 15.0, 5.0))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            FenceRegion("bad", 20.0, 10.0, 0.0, 5.0)


class TestWind:
    def test_calm_by_default(self):
        assert Wind().is_calm

    def test_constant_wind(self):
        wind = Wind(north_ms=3.0, east_ms=-1.0)
        assert wind.velocity_at(0.0) == (3.0, -1.0)
        assert wind.velocity_at(10.0) == (3.0, -1.0)

    def test_gusts_vary_with_time(self):
        wind = Wind(north_ms=2.0, gust_amplitude_ms=1.0, gust_period_s=4.0)
        assert wind.velocity_at(1.0) != wind.velocity_at(2.0)


class TestGeoLocation:
    def test_offset_round_trip(self):
        home = GeoLocation()
        target = home.offset(100.0, -50.0)
        north, east = home.local_offset_to(target)
        assert north == pytest.approx(100.0, abs=0.01)
        assert east == pytest.approx(-50.0, abs=0.01)

    def test_zero_offset(self):
        home = GeoLocation()
        assert home.local_offset_to(home) == pytest.approx((0.0, 0.0))


class TestEnvironment:
    def test_default_environment_matches_paper_setup(self):
        env = default_environment()
        assert not env.obstacles and not env.fences
        assert env.wind.is_calm and env.ground_altitude == 0.0

    def test_fenced_environment_is_not_default(self):
        assert fenced_environment().fences

    def test_collision_queries(self):
        env = Environment(obstacles=(Obstacle("tower", 5.0, 5.0, 1.0, 1.0, 30.0),))
        assert env.colliding_obstacle((5.0, 5.0, 10.0)) is not None
        assert env.colliding_obstacle((50.0, 5.0, 10.0)) is None

    def test_fence_queries(self):
        env = fenced_environment()
        assert env.breached_fence((20.0, 20.0, 10.0)) is not None
        assert env.breached_fence((0.0, 0.0, 10.0)) is None

    def test_below_ground(self):
        env = default_environment()
        assert env.is_below_ground((0.0, 0.0, -0.1))
        assert not env.is_below_ground((0.0, 0.0, 0.1))

    def test_describe_mentions_contents(self):
        description = fenced_environment().describe()
        assert "fence" in description
