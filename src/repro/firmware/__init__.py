"""Control-firmware substrate: ArduPilot- and PX4-flavoured autopilots.

The paper checks two real firmware stacks (ArduPilot 3.6.9 and PX4
1.9.0).  We cannot run those C++ code bases here, so this package
implements a multicopter control firmware with the structure the paper
relies on -- operating modes, a fused state estimator with sensor
fail-over, cascaded navigation controllers, fail-safes, arming logic and
a MAVLink handler -- and two flavours on top of it that differ in mode
naming, parameters, and (crucially) in which *sensor bugs* their
fault-handling logic contains.

Bugs are first-class objects (:mod:`repro.firmware.bugs`): the ten
previously-unknown bugs of Table II exist as latent, enabled-by-default
code paths in the corresponding flavour, and the five previously-known
bugs of Table V can be "re-inserted" exactly like the paper re-inserts
them into the upstream code base.
"""

from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.base import ControlFirmware
from repro.firmware.bugs import (
    ARDUPILOT_LATENT_BUGS,
    KNOWN_BUGS,
    PX4_LATENT_BUGS,
    BugDescriptor,
    BugRegistry,
    BugSymptom,
    BugTrigger,
    EffectScript,
)
from repro.firmware.estimator import EstimatorStatus, StateEstimate, StateEstimator
from repro.firmware.modes import FlightMode, OperatingModeLabel
from repro.firmware.params import FirmwareParameters
from repro.firmware.px4 import Px4Firmware

__all__ = [
    "ARDUPILOT_LATENT_BUGS",
    "ArduPilotFirmware",
    "BugDescriptor",
    "BugRegistry",
    "BugSymptom",
    "BugTrigger",
    "ControlFirmware",
    "EffectScript",
    "EstimatorStatus",
    "FirmwareParameters",
    "FlightMode",
    "KNOWN_BUGS",
    "OperatingModeLabel",
    "PX4_LATENT_BUGS",
    "Px4Firmware",
    "StateEstimate",
    "StateEstimator",
]
