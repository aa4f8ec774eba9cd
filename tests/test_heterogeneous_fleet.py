"""Integration tests for heterogeneous fleets, the beacon-driven convoy,
and separation-aware SABRE.

The refactor-seam contracts pinned here:

* ``VehicleSpec`` is a pure refactor: a homogeneous fleet expressed as
  explicit specs is bit-identical (scenarios, order, budget trajectory,
  cache keys) to the scalar-alias configuration.
* A heterogeneous campaign (ArduPilot lead + PX4 follower) runs end to
  end, on the serial and the process-pool backend, with identical
  results -- including through ``python -m repro.engine``.
* Separation-aware SABRE reaches the first separation violation on the
  convoy-follow workload with a beacon-dropout fault space in strictly
  fewer simulations than uniform dequeue ordering at the same budget.
"""

import json

import pytest

from repro.core.avis import Avis
from repro.core.config import RunConfiguration, VehicleSpec
from repro.core.monitor import UnsafeConditionKind
from repro.core.runner import TestRunner
from repro.core.strategies import AvisStrategy, RandomInjection
from repro.engine.api import build_cells, parse_vehicle_spec
from repro.engine.cli import build_parser, main, request_from_args
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.px4 import Px4Firmware
from repro.hinj.faults import TrafficFailure, TrafficFaultKind
from repro.sim.vehicle import SOLO_QUADCOPTER
from repro.workloads.fleet import ConvoyFollowWorkload, MultiPadTakeoffLandWorkload


def convoy_config(vehicles=None, fleet_size=2):
    kwargs = dict(
        workload_factory=lambda: ConvoyFollowWorkload(),
        max_sim_time_s=160.0,
    )
    if vehicles is not None:
        kwargs["vehicles"] = vehicles
    else:
        kwargs["firmware_class"] = ArduPilotFirmware
        kwargs["fleet_size"] = fleet_size
    return RunConfiguration(**kwargs)


HETEROGENEOUS = (
    VehicleSpec(firmware_class=ArduPilotFirmware),
    VehicleSpec(firmware_class=Px4Firmware),
)


class TestVehicleSpecBitIdentity:
    """Homogeneous fleets before/after VehicleSpec are the same campaign."""

    def _campaign(self, config, budget=3.0):
        avis = Avis(config, profiling_runs=2, budget_units=budget)
        avis.profile()
        result = avis.check(strategy=RandomInjection(rng_seed=11))
        return result, avis.cache.keys()

    def test_explicit_specs_match_scalar_fleet_campaign(self):
        scalar = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=lambda: MultiPadTakeoffLandWorkload(fleet_size=2),
            fleet_size=2,
            max_sim_time_s=160.0,
        )
        explicit = RunConfiguration(
            workload_factory=lambda: MultiPadTakeoffLandWorkload(fleet_size=2),
            vehicles=(VehicleSpec(), VehicleSpec()),
            max_sim_time_s=160.0,
        )
        scalar_result, scalar_keys = self._campaign(scalar)
        explicit_result, explicit_keys = self._campaign(explicit)
        assert [str(r.scenario) for r in explicit_result.results] == [
            str(r.scenario) for r in scalar_result.results
        ]
        assert explicit_result.budget_spent == scalar_result.budget_spent
        assert explicit_result.unsafe_scenario_count == (
            scalar_result.unsafe_scenario_count
        )
        assert explicit_keys == scalar_keys

    def test_single_vehicle_spec_matches_classic_config(self, short_auto_config):
        explicit = RunConfiguration(
            workload_factory=short_auto_config.workload_factory,
            max_sim_time_s=short_auto_config.max_sim_time_s,
            vehicles=(VehicleSpec(),),
        )
        assert explicit.fleet_size == 1
        classic_result, classic_keys = self._campaign(short_auto_config)
        explicit_result, explicit_keys = self._campaign(explicit)
        assert [str(r.scenario) for r in explicit_result.results] == [
            str(r.scenario) for r in classic_result.results
        ]
        assert explicit_result.budget_spent == classic_result.budget_spent
        assert explicit_keys == classic_keys


class TestHeterogeneousConvoy:
    def test_golden_run_passes_with_mixed_firmware(self):
        config = convoy_config(vehicles=HETEROGENEOUS)
        result = TestRunner(config).run()
        assert result.workload_passed
        assert result.vehicle_firmware_names == {0: "ardupilot", 1: "px4"}
        assert result.min_separation_m is not None
        assert result.min_separation_m > 4.0

    def test_pool_matches_serial_on_heterogeneous_convoy(self):
        def campaign(backend):
            avis = Avis(
                convoy_config(vehicles=HETEROGENEOUS),
                profiling_runs=2,
                budget_units=4.0,
                backend=backend,
            )
            avis.profile()
            result = avis.check(strategy=RandomInjection(rng_seed=7))
            keys = avis.cache.keys()
            avis.engine.close()
            return result, keys

        serial_result, serial_keys = campaign("serial")
        pool_result, pool_keys = campaign("pool:2")
        assert [str(r.scenario) for r in pool_result.results] == [
            str(r.scenario) for r in serial_result.results
        ]
        assert [len(r.unsafe_conditions) for r in pool_result.results] == [
            len(r.unsafe_conditions) for r in serial_result.results
        ]
        assert pool_result.budget_spent == serial_result.budget_spent
        assert pool_keys == serial_keys


class TestSeparationAwareSabre:
    """The committed benchmark for the separation-aware dequeue: fewer
    simulations to the first separation violation than uniform ordering,
    end to end on the convoy with a beacon-dropout fault space."""

    BUDGET = 12.0

    @staticmethod
    def _first_separation_index(result, budget):
        for index, run in enumerate(result.results, start=1):
            if any(
                condition.kind == UnsafeConditionKind.SEPARATION
                for condition in run.unsafe_conditions
            ):
                return index
        return int(budget) + 1  # not found within the budget

    def test_separation_aware_finds_violation_in_fewer_simulations(self):
        avis = Avis(convoy_config(), profiling_runs=2, budget_units=self.BUDGET)
        avis.profile()
        failures = [
            TrafficFailure(vehicle, TrafficFaultKind.DROPOUT) for vehicle in range(2)
        ]

        def strategy(separation_aware):
            return AvisStrategy(
                failures=failures,
                separation_aware=separation_aware,
                max_scenarios_per_dequeue=4,
            )

        uniform = avis.check(strategy=strategy(False))
        aware = avis.check(strategy=strategy(True))
        uniform_first = self._first_separation_index(uniform, self.BUDGET)
        aware_first = self._first_separation_index(aware, self.BUDGET)
        # The weighted dequeue must genuinely engage...
        assert aware_first <= self.BUDGET, (
            "separation-aware SABRE found no separation violation at all"
        )
        # ... and reach the violation strictly earlier than FIFO order.
        assert aware_first < uniform_first

    def test_separation_aware_is_inert_without_fleet_profiles(self, waypoint_avis):
        """Single-vehicle campaigns carry no separation data: the flag
        must degrade to the exact uniform (FIFO) campaign."""
        uniform = waypoint_avis.check(
            strategy=AvisStrategy(max_scenarios_per_dequeue=4), budget_units=5.0
        )
        flagged = waypoint_avis.check(
            strategy=AvisStrategy(
                max_scenarios_per_dequeue=4, separation_aware=True
            ),
            budget_units=5.0,
        )
        assert [str(r.scenario) for r in flagged.results] == [
            str(r.scenario) for r in uniform.results
        ]
        assert flagged.budget_spent == uniform.budget_spent


class TestVehicleCli:
    def test_parse_vehicle_spec(self):
        spec = parse_vehicle_spec("firmware=px4,airframe=solo")
        assert spec.firmware_class is Px4Firmware
        assert spec.airframe is SOLO_QUADCOPTER
        assert parse_vehicle_spec("firmware=ardupilot").firmware_class is (
            ArduPilotFirmware
        )
        for bad in ("firmware=apm", "airframe=f16", "colour=red", "px4"):
            with pytest.raises(ValueError):
                parse_vehicle_spec(bad)

    def _request(self, argv):
        return request_from_args(build_parser().parse_args(argv))

    def test_vehicle_cells_define_the_fleet(self):
        cells = build_cells(
            self._request(
                [
                    "--workload", "convoy",
                    "--vehicle", "firmware=ardupilot",
                    "--vehicle", "firmware=px4,airframe=solo",
                    "--strategy", "avis",
                    "--budget", "5",
                    "--traffic-faults",
                    "--separation-aware",
                ]
            )
        )
        assert len(cells) == 1
        cell = cells[0]
        assert cell.cell_id == "ardupilot+px4/convoy@fleet2+traffic/avis+sep/5"
        assert cell.config.is_heterogeneous
        assert cell.config.fleet_size == 2
        assert cell.config.vehicle_spec(1).airframe is SOLO_QUADCOPTER
        assert cell.traffic_faults
        strategy = cell.strategy_factory()
        assert strategy._include_traffic
        assert strategy._separation_aware

    def test_vehicle_cells_are_emitted_once_across_firmware_axis(self):
        cells = build_cells(
            self._request(
                [
                    "--firmware", "ardupilot", "px4",
                    "--workload", "convoy", "waypoint",
                    "--vehicle", "firmware=ardupilot",
                    "--vehicle", "firmware=px4",
                    "--strategy", "random",
                    "--budget", "5",
                ]
            )
        )
        ids = [cell.cell_id for cell in cells]
        assert ids.count("ardupilot+px4/convoy@fleet2/random/5") == 1
        # Classic workloads still iterate the --firmware axis.
        assert "ardupilot/waypoint/random/5" in ids
        assert "px4/waypoint/random/5" in ids

    def test_vehicle_validation_errors(self):
        with pytest.raises(ValueError):
            build_cells(
                self._request(
                    ["--workload", "waypoint", "--vehicle", "firmware=px4",
                     "--vehicle", "firmware=px4"]
                )
            )
        with pytest.raises(ValueError):
            build_cells(
                self._request(["--workload", "convoy", "--vehicle", "firmware=px4"])
            )
        with pytest.raises(ValueError):
            build_cells(
                self._request(
                    ["--workload", "convoy", "--fleet-size", "3",
                     "--vehicle", "firmware=px4", "--vehicle", "firmware=px4"]
                )
            )
        with pytest.raises(ValueError):
            build_cells(self._request(["--workload", "waypoint", "--traffic-faults"]))
        # --traffic-faults only combines with strategies that actually
        # draw from the coordination fault space.
        with pytest.raises(ValueError):
            build_cells(
                self._request(
                    ["--workload", "convoy", "--fleet-size", "2",
                     "--traffic-faults", "--strategy", "bfi"]
                )
            )
        with pytest.raises(ValueError):
            build_cells(
                self._request(
                    ["--workload", "waypoint", "--strategy", "random",
                     "--separation-aware"]
                )
            )

    def test_heterogeneous_campaign_through_engine_cli(self, tmp_path):
        """Acceptance: an ArduPilot-lead + PX4-follower campaign runs end
        to end through ``python -m repro.engine``."""
        out = tmp_path / "hetero.json"
        code = main(
            [
                "--workload", "convoy",
                "--vehicle", "firmware=ardupilot",
                "--vehicle", "firmware=px4",
                "--strategy", "random",
                "--budget", "2",
                "--workers", "1",
                "--quiet",
                "--json", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["totals"]["campaigns"] == 1
        campaign = summary["campaigns"][0]
        assert campaign["cell"] == "ardupilot+px4/convoy@fleet2/random/2"
        assert campaign["fleet_size"] == 2
        assert campaign["vehicles"] == ["ardupilot/3DR Iris", "px4/3DR Iris"]
        assert campaign["simulations"] == 2
