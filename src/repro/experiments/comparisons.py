"""Comparison experiments against the paper's implicit baselines.

* ``cmp-si``  -- the proposed MLGNR-CNT device vs the conventional
  silicon floating-gate transistor the paper positions itself against
  (Section I-II): programming current, speed and retention leakage at
  the same bias and geometry.
* ``cmp-che`` -- Fowler-Nordheim vs channel-hot-electron programming
  (Section II): supply current per cell and injection efficiency,
  quantifying why the paper "mainly focus[es] on FN tunneling based
  programming" for NAND-style arrays.

Both accept the session-API protocol (``run(ctx, **params)``) with
sweep-range and bias overrides.
"""

from __future__ import annotations

import numpy as np

from ..api.session import SimulationContext, ensure_context
from ..device.baselines import mlgnr_reference_fgt, silicon_baseline_fgt
from ..device.retention import RetentionModel
from ..device.transient import equilibrium_charge, simulate_transient
from ..reporting.ascii_plot import PlotSeries
from ..tunneling.channel_hot_electron import (
    CheOperatingPoint,
    LuckyElectronModel,
    compare_che_to_fn,
)
from .base import ExperimentResult, ShapeCheck


def _format_t_sat(t_sat_s: "float | None") -> str:
    """A saturation time for a check detail; ``None`` never saturated."""
    if t_sat_s is None:
        return "not saturated"
    return f"{t_sat_s:.2e} s"


def run_silicon_comparison(
    ctx: "SimulationContext | None" = None,
    *,
    n_points: int = 25,
    vgs_range_v: "tuple[float, float]" = (10.0, 17.0),
    duration_s: float = 1e-2,
) -> ExperimentResult:
    """cmp-si: J_FN vs V_GS for the MLGNR device and the Si baseline."""
    ctx = ensure_context(ctx)
    gnr = mlgnr_reference_fgt()
    si = silicon_baseline_fgt()
    program_bias = ctx.bias("program")

    vgs = np.linspace(*vgs_range_v, n_points)
    gcr = gnr.gate_coupling_ratio

    def sweep(device):
        model = device.tunnel_fn_model
        return np.array(
            [
                abs(model.current_density_from_voltage(gcr * float(v)))
                for v in vgs
            ]
        )

    j_gnr = sweep(gnr)
    j_si = sweep(si)
    series = (
        PlotSeries(label="MLGNR-CNT (phi_B=3.61eV)", x=vgs, y=j_gnr),
        PlotSeries(label="Si baseline (phi_B=3.10eV)", x=vgs, y=j_si),
    )

    gnr_transient = simulate_transient(gnr, program_bias, duration_s=duration_s)
    si_transient = simulate_transient(si, program_bias, duration_s=duration_s)

    q_gnr = equilibrium_charge(gnr, program_bias)
    q_si = equilibrium_charge(si, program_bias)
    leak_gnr = RetentionModel(gnr).leakage_current_a(q_gnr)
    leak_si = RetentionModel(si).leakage_current_a(q_si)

    checks = (
        ShapeCheck(
            claim="the taller graphene/SiO2 barrier passes less FN current "
            "than Si/SiO2 at equal bias",
            passed=bool(np.all(j_gnr < j_si)),
            detail=f"at {vgs[n_points // 2]:g} V: "
            f"{j_gnr[n_points // 2]:.2e} vs "
            f"{j_si[n_points // 2]:.2e} A/m^2",
        ),
        ShapeCheck(
            claim="the silicon baseline therefore programs faster at 15 V",
            passed=(
                si_transient.t_sat_s is not None
                and gnr_transient.t_sat_s is not None
                and si_transient.t_sat_s < gnr_transient.t_sat_s
            ),
            detail=f"t_sat: Si {_format_t_sat(si_transient.t_sat_s)} vs "
            f"MLGNR {_format_t_sat(gnr_transient.t_sat_s)}",
        ),
        ShapeCheck(
            claim="the MLGNR cell retains charge better (same barrier "
            "asymmetry, reversed role at retention fields)",
            passed=leak_gnr < leak_si,
            detail=f"rest leakage: MLGNR {leak_gnr:.2e} A vs Si "
            f"{leak_si:.2e} A",
        ),
        ShapeCheck(
            claim="stored charge is capacitance-limited, not "
            "barrier-limited (within 2x between devices)",
            passed=0.5 < abs(q_si / q_gnr) < 2.0,
            detail=f"Q_eq: Si {q_si:.2e} C vs MLGNR {q_gnr:.2e} C",
        ),
    )
    return ExperimentResult(
        experiment_id="cmp-si",
        title="MLGNR-CNT device vs conventional silicon FGT",
        x_label="V_GS [V]",
        y_label="J_FN [A/m^2]",
        series=series,
        parameters={
            "gcr": gcr,
            "barriers_ev": (
                gnr.barrier_heights_ev()[0],
                si.barrier_heights_ev()[0],
            ),
        },
        checks=checks,
    )


def run_che_comparison(
    ctx: "SimulationContext | None" = None,
    *,
    n_points: int = 25,
    drain_voltage_range_v: "tuple[float, float]" = (4.0, 6.0),
    che_drain_current_a: float = 5e-4,
    duration_s: float = 1e-3,
) -> ExperimentResult:
    """cmp-che: supply current of CHE vs FN programming."""
    ctx = ensure_context(ctx)
    device = mlgnr_reference_fgt()
    program_bias = ctx.bias("program")
    barrier_ev = device.barrier_heights_ev()[0]
    che = LuckyElectronModel(barrier_height_ev=barrier_ev)

    # FN cell current over the programming transient.
    transient = simulate_transient(device, program_bias, duration_s=duration_s)
    area = device.geometry.channel_area_m2
    fn_cell_current = np.abs(transient.jin_a_m2) * area

    # CHE gate current across the paper's drain-voltage range (4-6 V).
    drain_voltages = np.linspace(*drain_voltage_range_v, n_points)
    che_gate_currents = np.array(
        [
            che.gate_current_a(
                che_drain_current_a,
                CheOperatingPoint(
                    drain_voltage_v=float(v)
                ).lateral_field_v_per_m,
            )
            for v in drain_voltages
        ]
    )
    series = (
        PlotSeries(
            label="CHE gate current vs V_D",
            x=drain_voltages,
            y=che_gate_currents,
        ),
        PlotSeries(
            label="FN cell current vs time (rescaled axis)",
            x=np.linspace(*drain_voltage_range_v, transient.t_s.size),
            y=fn_cell_current,
        ),
    )

    comparison = compare_che_to_fn(
        che, CheOperatingPoint(), fn_cell_current_a=float(fn_cell_current[0])
    )
    v_lo, v_hi = drain_voltage_range_v
    checks = (
        ShapeCheck(
            claim="FN programming draws < 1 nA per cell for most of the "
            "pulse (paper Section II reason (ii))",
            passed=bool(np.median(fn_cell_current) < 1e-9),
            detail=f"median FN cell current "
            f"{np.median(fn_cell_current):.2e} A",
        ),
        ShapeCheck(
            claim="CHE requires a large (0.3-1 mA) channel current per "
            "cell, limiting parallelism",
            passed=comparison["supply_current_ratio"] > 1e4,
            detail=f"supply ratio CHE/FN = "
            f"{comparison['supply_current_ratio']:.1e}",
        ),
        ShapeCheck(
            claim="CHE injection efficiency is far below unity",
            passed=comparison["che_injection_efficiency"] < 1e-2,
            detail=f"I_g/I_d = {comparison['che_injection_efficiency']:.2e}",
        ),
        ShapeCheck(
            claim="CHE gate current grows superlinearly with drain voltage "
            "(the lucky-electron exponential)",
            passed=bool(
                che_gate_currents[-1]
                > 2.0 * (v_hi / v_lo) * che_gate_currents[0]
            ),
            detail=f"{che_gate_currents[0]:.2e} -> "
            f"{che_gate_currents[-1]:.2e} A over {v_lo:g}-{v_hi:g} V "
            f"(x{che_gate_currents[-1] / che_gate_currents[0]:.1f} for a "
            f"x{v_hi / v_lo:.1f} voltage step)",
        ),
    )
    return ExperimentResult(
        experiment_id="cmp-che",
        title="Programming mechanisms: Fowler-Nordheim vs channel hot "
        "electron",
        x_label="V_D [V] (CHE) / scaled time (FN)",
        y_label="current [A]",
        series=series,
        parameters={
            "barrier_ev": barrier_ev,
            "che_drain_current_a": che_drain_current_a,
        },
        checks=checks,
    )
