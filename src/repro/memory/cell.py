"""Array-scale memory cell model calibrated from the device physics.

Running the full tunneling ODE for every cell of a simulated array
would be prohibitively slow. Instead a :class:`CellKernel` is calibrated
*once* from the :class:`FloatingGateTransistor` transients -- per-pulse
threshold shifts for the chosen program/erase pulses -- and then every
cell of a :class:`~repro.memory.array.VectorMemoryArray` replays those
shifts with cell-to-cell variability.
This is the standard compact-model split between device simulation and
array simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..device.bias import BiasCondition, ERASE_BIAS, PROGRAM_BIAS
from ..device.floating_gate import FloatingGateTransistor
from ..device.threshold import ThresholdModel
from ..device.transient import simulate_transient
from ..errors import ConfigurationError


@dataclass(frozen=True)
class CellKernel:
    """Device-calibrated per-pulse behaviour shared by all cells.

    Attributes
    ----------
    erased_vt_v:
        Mean threshold of the erased state [V].
    programmed_vt_v:
        Mean threshold after a full program operation [V].
    program_pulse_shift_v:
        Threshold gain of one nominal program pulse from the erased
        state [V].
    ispp_step_v:
        Threshold gain per ISPP staircase step once in the steady
        regime [V] (equal to the voltage step, a standard ISPP result).
    pulse_duration_s:
        The calibrated pulse length [s].
    """

    erased_vt_v: float
    programmed_vt_v: float
    program_pulse_shift_v: float
    ispp_step_v: float
    pulse_duration_s: float

    def __post_init__(self) -> None:
        if self.programmed_vt_v <= self.erased_vt_v:
            raise ConfigurationError(
                "programmed threshold must exceed erased threshold"
            )
        if self.program_pulse_shift_v <= 0.0:
            raise ConfigurationError("pulse shift must be positive")

    @property
    def window_v(self) -> float:
        """Full memory window [V]."""
        return self.programmed_vt_v - self.erased_vt_v


def calibrate_kernel(
    device: FloatingGateTransistor,
    pulse_duration_s: float = 1e-4,
    program_bias: BiasCondition = PROGRAM_BIAS,
    erase_bias: BiasCondition = ERASE_BIAS,
    ispp_step_v: float = 0.5,
) -> CellKernel:
    """Calibrate the array kernel from full device transients.

    One program pulse from erased and one erase pulse from programmed
    are simulated with the real FN dynamics; their endpoint thresholds
    parameterise every cell in the array.
    """
    threshold = ThresholdModel(device)
    erase_from_fresh = simulate_transient(
        device, erase_bias, duration_s=pulse_duration_s
    )
    erased_q = erase_from_fresh.final_charge_c
    erased_vt = threshold.threshold_v(erased_q)

    program = simulate_transient(
        device,
        program_bias,
        initial_charge_c=erased_q,
        duration_s=pulse_duration_s,
    )
    programmed_vt = threshold.threshold_v(program.final_charge_c)

    # Single shorter pulse for the per-pulse shift (1/8 of the full op).
    single = simulate_transient(
        device,
        program_bias,
        initial_charge_c=erased_q,
        duration_s=pulse_duration_s / 8.0,
    )
    single_shift = threshold.threshold_v(single.final_charge_c) - erased_vt
    return CellKernel(
        erased_vt_v=erased_vt,
        programmed_vt_v=programmed_vt,
        program_pulse_shift_v=max(single_shift, 1e-3),
        ispp_step_v=ispp_step_v,
        pulse_duration_s=pulse_duration_s,
    )

