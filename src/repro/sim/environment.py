"""The physical world the simulated vehicle flies in.

Section IV-A of the paper: "The simulator provides an environment, a
model of the physical world that contains obstacles and weather effects.
[...] Avis uses an environment without hostile weather or obstacles."

The default environment therefore contains only the ground plane and the
home location.  Obstacles, fences and wind are supported because (a) the
second default workload uses a geo-fence and (b) the bug-study benchmark
distinguishes bugs that need special environments from those reproducible
under default settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Optional, Sequence, Tuple

from repro.sim.state import Vector3, VehicleState


@dataclass(frozen=True)
class Obstacle:
    """An axis-aligned box obstacle in the local frame.

    Obstacles are specified by their centre (north, east), footprint
    half-extents, and height above ground.
    """

    name: str
    center_north: float
    center_east: float
    half_width_north: float
    half_width_east: float
    height: float

    def contains(self, point: Vector3) -> bool:
        """Return True when ``point`` lies inside the obstacle volume."""
        north, east, up = point
        return (
            abs(north - self.center_north) <= self.half_width_north
            and abs(east - self.center_east) <= self.half_width_east
            and 0.0 <= up <= self.height
        )

    def horizontal_distance(self, point: Vector3) -> float:
        """Distance from ``point`` to the obstacle footprint (0 if inside)."""
        dn = max(abs(point[0] - self.center_north) - self.half_width_north, 0.0)
        de = max(abs(point[1] - self.center_east) - self.half_width_east, 0.0)
        return math.hypot(dn, de)


@dataclass(frozen=True)
class FenceRegion:
    """A rectangular keep-out region used by the fence workload.

    The second default workload in the paper flies a 20 m x 20 m box that
    overlaps a fenced area the UAV must avoid.  A fence breach is not a
    physical collision; the firmware is expected to react to it (brake,
    return, or land depending on configuration).
    """

    name: str
    min_north: float
    max_north: float
    min_east: float
    max_east: float
    min_altitude: float = 0.0
    max_altitude: float = float("inf")

    def __post_init__(self) -> None:
        if self.min_north > self.max_north or self.min_east > self.max_east:
            raise ValueError("fence region has inverted bounds")

    def contains(self, point: Vector3) -> bool:
        """Return True when ``point`` lies inside the keep-out region."""
        north, east, up = point
        return (
            self.min_north <= north <= self.max_north
            and self.min_east <= east <= self.max_east
            and self.min_altitude <= up <= self.max_altitude
        )


@dataclass(frozen=True)
class Wind:
    """A constant wind field plus an optional gust amplitude.

    The default environment is calm.  Wind is modelled as a constant
    acceleration disturbance proportional to the difference between wind
    speed and vehicle speed; gusts add a deterministic sinusoidal term so
    runs remain reproducible.
    """

    north_ms: float = 0.0
    east_ms: float = 0.0
    gust_amplitude_ms: float = 0.0
    gust_period_s: float = 5.0

    def velocity_at(self, time: float) -> Tuple[float, float]:
        """Wind velocity (north, east) in m/s at simulation time ``time``."""
        if self.gust_amplitude_ms == 0.0:
            return (self.north_ms, self.east_ms)
        gust = self.gust_amplitude_ms * math.sin(2.0 * math.pi * time / self.gust_period_s)
        return (self.north_ms + gust, self.east_ms + gust * 0.5)

    @property
    def is_calm(self) -> bool:
        """True when there is no wind at all."""
        return self.north_ms == 0.0 and self.east_ms == 0.0 and self.gust_amplitude_ms == 0.0


@dataclass(frozen=True)
class GeoLocation:
    """A WGS-84 location used to georeference the local frame."""

    latitude_deg: float = 40.0 + 0.0 / 60.0          # Columbus, OH area
    longitude_deg: float = -83.0
    altitude_msl_m: float = 270.0

    # Metres per degree at mid latitudes; adequate for +/- a few hundred
    # metres of flight around the home point.
    METERS_PER_DEG_LAT: ClassVar[float] = 111_320.0

    def meters_per_deg_lon(self) -> float:
        """Longitude scale factor at this latitude."""
        return self.METERS_PER_DEG_LAT * math.cos(math.radians(self.latitude_deg))

    def offset(self, north_m: float, east_m: float) -> "GeoLocation":
        """Return the location ``north_m`` / ``east_m`` metres away."""
        return GeoLocation(
            latitude_deg=self.latitude_deg + north_m / self.METERS_PER_DEG_LAT,
            longitude_deg=self.longitude_deg + east_m / self.meters_per_deg_lon(),
            altitude_msl_m=self.altitude_msl_m,
        )

    def local_offset_to(self, other: "GeoLocation") -> Tuple[float, float]:
        """Return (north, east) metres from this location to ``other``."""
        north = (other.latitude_deg - self.latitude_deg) * self.METERS_PER_DEG_LAT
        east = (other.longitude_deg - self.longitude_deg) * self.meters_per_deg_lon()
        return (north, east)


@dataclass
class Environment:
    """The simulated physical world.

    The default construction matches the paper's evaluation environment:
    flat ground at altitude zero, no obstacles, no wind, and the home
    location at the local origin.
    """

    home: GeoLocation = field(default_factory=GeoLocation)
    ground_altitude: float = 0.0
    obstacles: Sequence[Obstacle] = field(default_factory=tuple)
    fences: Sequence[FenceRegion] = field(default_factory=tuple)
    wind: Wind = field(default_factory=Wind)
    air_density: float = 1.225

    def terrain_height(self, north: float, east: float) -> float:
        """Ground height at a horizontal location (flat world by default)."""
        del north, east  # flat terrain everywhere
        return self.ground_altitude

    def colliding_obstacle(self, point: Vector3) -> Optional[Obstacle]:
        """Return the obstacle that ``point`` penetrates, if any."""
        for obstacle in self.obstacles:
            if obstacle.contains(point):
                return obstacle
        return None

    def breached_fence(self, point: Vector3) -> Optional[FenceRegion]:
        """Return the fence region containing ``point``, if any."""
        for fence in self.fences:
            if fence.contains(point):
                return fence
        return None

    def is_below_ground(self, point: Vector3) -> bool:
        """Return True when ``point`` is at or below the terrain surface."""
        return point[2] <= self.terrain_height(point[0], point[1])

    def describe(self) -> str:
        """A one-line summary used in reports."""
        parts = [f"ground@{self.ground_altitude:.1f}m"]
        if self.obstacles:
            parts.append(f"{len(self.obstacles)} obstacle(s)")
        if self.fences:
            parts.append(f"{len(self.fences)} fence(s)")
        parts.append("calm" if self.wind.is_calm else "windy")
        return ", ".join(parts)


def default_environment() -> Environment:
    """The environment used by the paper's evaluation: calm and empty."""
    return Environment()


def fenced_environment(
    fence: Optional[FenceRegion] = None,
    obstacles: Iterable[Obstacle] = (),
) -> Environment:
    """An environment with a keep-out fence for the fence workload.

    The default fence overlaps the north-east corner of the 20 m x 20 m
    box flown by the waypoint workload, forcing the firmware's fence
    handling to engage mid-mission.
    """
    if fence is None:
        fence = FenceRegion(
            name="restricted-airspace",
            min_north=15.0,
            max_north=60.0,
            min_east=15.0,
            max_east=60.0,
        )
    return Environment(fences=(fence,), obstacles=tuple(obstacles))
