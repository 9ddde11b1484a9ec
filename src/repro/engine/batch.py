"""NumPy-vectorized batch evaluation of the paper's hot path.

The seed simulator evaluated everything one cell at a time: a figure
sweep called :func:`repro.electrostatics.gcr.floating_gate_voltage_simple`
and the FN closed form once per voltage point, the transient sampler
called ``tunneling_state`` once per time sample, and the optimizer paid
the full device-construction cost per candidate. This module replaces
those loops with array programs over **batches** of (voltage, GCR,
oxide-thickness, charge) lanes:

* :class:`BatchSpec` describes a broadcastable batch of eq. (3) + (7)
  evaluation points; :func:`fn_batch` evaluates the whole batch in one
  fused NumPy expression, with the FN coefficient pair and the
  coupling-ratio electrostatics memoized in :mod:`repro.engine.cache`.
* :func:`tunneling_states` evaluates Jin/Jout/net for an array of
  stored charges through a cached compiled cell -- the vectorized form
  of the transient sampler.
* :func:`transient_sweep` runs program/erase transients for an array of
  gate voltages; the lanes advance together as one vector ODE state
  through the array-valued integrator of
  :func:`repro.device.transient.simulate_transient_batch` (one
  ``solve_ivp`` call for the whole sweep, with a fixed-step RK4 mode
  and the historical per-lane adaptive path selectable).
* :func:`design_screen` is the optimizer's closed-form pre-screen: the
  zero-charge current density and oxide field of a whole design grid in
  one shot.

Every kernel reuses the exact scalar formulas of the device layer, so
batch lanes match the scalar path to floating-point round-off -- the
batch engine is a faster route through the same physics, not a second
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..device.bias import BiasCondition
from ..device.floating_gate import BatchTunnelingState, FloatingGateTransistor
from ..device.transient import TransientResult, simulate_transient_batch
from ..electrostatics.gcr import floating_gate_voltage_batch
from ..errors import ConfigurationError
from ..materials.graphene import GRAPHENE_WORK_FUNCTION_EV
from ..materials.oxides import SIO2
from ..tunneling.fowler_nordheim import fn_current_density
from ..tunneling.temperature import temperature_correction_factor_batch
from ..units import nm_to_m
from . import cache

#: Default tunnel barrier: graphene emitter on SiO2 (the paper's stack).
DEFAULT_BARRIER_HEIGHT_EV = GRAPHENE_WORK_FUNCTION_EV - SIO2.electron_affinity_ev
DEFAULT_MASS_RATIO = SIO2.tunneling_mass_ratio


@dataclass(frozen=True)
class BatchSpec:
    """A broadcastable batch of eq. (3) + (7) evaluation points.

    Attributes
    ----------
    gate_voltages_v:
        Control-gate voltages [V]; any shape.
    gcrs:
        Gate coupling ratios; must broadcast against the voltages.
    tunnel_oxides_nm:
        Tunnel-oxide thicknesses X_TO [nm]; must broadcast likewise.
    charges_over_ct_v:
        Stored charge pre-divided by C_T (the ``Q_FG / C_T`` term of
        eq. (3)) [V]; defaults to the fresh-cell value of zero.
    barrier_height_ev, mass_ratio:
        FN barrier parameters shared by the whole batch (scalar:
        figure sweeps vary bias and geometry, not the material system).
    temperature_k:
        Lattice temperature [K] shared by the batch. Zero (the default)
        reproduces the paper's zero-temperature FN closed form; positive
        values apply the Good-Mueller thermal-broadening factor of
        :func:`repro.tunneling.temperature.temperature_correction_factor`
        to every lane.

    The evaluated batch has the NumPy broadcast shape of the first four
    fields, so family sweeps are expressed with orthogonal axes: a
    column of GCRs against a row of voltages yields a (n_gcr, n_vgs)
    result grid. :meth:`family_grid` builds exactly that layout.
    """

    gate_voltages_v: np.ndarray
    gcrs: np.ndarray = field(default_factory=lambda: np.asarray(0.6))
    tunnel_oxides_nm: np.ndarray = field(default_factory=lambda: np.asarray(5.0))
    charges_over_ct_v: np.ndarray = field(default_factory=lambda: np.asarray(0.0))
    barrier_height_ev: float = DEFAULT_BARRIER_HEIGHT_EV
    mass_ratio: float = DEFAULT_MASS_RATIO
    temperature_k: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "gate_voltages_v",
            "gcrs",
            "tunnel_oxides_nm",
            "charges_over_ct_v",
        ):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=float)
            )
        if self.barrier_height_ev <= 0.0:
            raise ConfigurationError("barrier height must be positive")
        if self.mass_ratio <= 0.0:
            raise ConfigurationError("mass ratio must be positive")
        if np.any(self.tunnel_oxides_nm <= 0.0):
            raise ConfigurationError("tunnel oxide must be positive")
        if np.any(self.gcrs <= 0.0) or np.any(self.gcrs >= 1.0):
            raise ConfigurationError("GCR must lie strictly inside (0, 1)")
        if self.temperature_k < 0.0:
            raise ConfigurationError("temperature cannot be negative")
        self.shape  # raises now if the lanes cannot broadcast

    @property
    def shape(self) -> "tuple[int, ...]":
        """Broadcast shape of the evaluated batch."""
        return np.broadcast_shapes(
            self.gate_voltages_v.shape,
            self.gcrs.shape,
            self.tunnel_oxides_nm.shape,
            self.charges_over_ct_v.shape,
        )

    @property
    def size(self) -> int:
        """Number of lanes in the batch."""
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @staticmethod
    def family_grid(
        gate_voltages_v,
        gcrs=(0.6,),
        tunnel_oxides_nm=(5.0,),
        **kwargs,
    ) -> "BatchSpec":
        """Spec for a (family x voltage) result grid.

        Voltages run along the last axis; the family parameters (GCR
        and/or oxide thickness) are lifted onto leading axes so one
        :func:`fn_batch` call evaluates every figure series at once.
        With both families of length > 1 the grid is
        (n_oxide, n_gcr, n_vgs).
        """
        vgs = np.asarray(gate_voltages_v, dtype=float).reshape(-1)
        gcr = np.asarray(gcrs, dtype=float).reshape(-1, 1)
        xto = np.asarray(tunnel_oxides_nm, dtype=float).reshape(-1, 1, 1)
        if xto.size == 1:
            xto = xto.reshape(())
        if gcr.size == 1:
            gcr = gcr.reshape(())
        return BatchSpec(
            gate_voltages_v=vgs,
            gcrs=gcr,
            tunnel_oxides_nm=xto,
            **kwargs,
        )


@dataclass(frozen=True)
class BatchResult:
    """Evaluated batch: one lane per broadcast element of the spec.

    Attributes
    ----------
    spec:
        The evaluated :class:`BatchSpec`.
    vfg_v:
        Floating-gate potentials, eq. (3) [V].
    field_v_per_m:
        Tunnel-oxide field magnitudes ``|V_FG| / X_TO`` [V/m].
    j_a_m2:
        Signed FN current densities, eq. (7) [A/m^2].
    """

    spec: BatchSpec
    vfg_v: np.ndarray = field(repr=False)
    field_v_per_m: np.ndarray = field(repr=False)
    j_a_m2: np.ndarray = field(repr=False)

    @property
    def j_magnitude_a_m2(self) -> np.ndarray:
        """|J_FN| [A/m^2], the quantity the paper's figures plot."""
        return np.abs(self.j_a_m2)


def fn_batch(spec: BatchSpec) -> BatchResult:
    """Evaluate eq. (3) + (7) for every lane of a batch in one shot.

    The FN coefficient pair is fetched from the engine cache (one entry
    per material system); the electrostatics and the FN kernel are
    single fused NumPy expressions over the broadcast lanes.
    """
    a, b = cache.fn_coefficients(spec.barrier_height_ev, spec.mass_ratio)
    vfg = floating_gate_voltage_batch(
        spec.gcrs, spec.gate_voltages_v, spec.charges_over_ct_v
    )
    vfg = np.broadcast_to(np.asarray(vfg, dtype=float), spec.shape)
    thickness_m = nm_to_m(spec.tunnel_oxides_nm)
    field_mag = np.abs(vfg) / thickness_m
    j = np.sign(vfg) * fn_current_density(field_mag, a, b)
    if spec.temperature_k > 0.0:
        j = j * temperature_correction_factor_batch(
            spec.barrier_height_ev,
            spec.mass_ratio,
            field_mag,
            spec.temperature_k,
        )
    return BatchResult(
        spec=spec,
        vfg_v=vfg,
        field_v_per_m=np.broadcast_to(field_mag, spec.shape),
        j_a_m2=np.broadcast_to(j, spec.shape),
    )


def tunneling_states(
    device: FloatingGateTransistor,
    bias: BiasCondition,
    charges_c,
) -> BatchTunnelingState:
    """Vectorized tunneling states for an array of stored charges.

    The engine-cached form of
    :meth:`FloatingGateTransistor.tunneling_state_batch`: the compiled
    (device, bias) cell is memoized, so repeated sweeps over the same
    cell (transient resampling, ISPP staircases, retention traces) pay
    the device-construction cost once.
    """
    return cache.compiled_cell(device, bias).tunneling_state_batch(charges_c)


@dataclass(frozen=True)
class TransientSweepResult:
    """Program/erase transients for an array of gate voltages.

    Attributes
    ----------
    gate_voltages_v:
        Swept control-gate voltages [V].
    results:
        One :class:`~repro.device.transient.TransientResult` per voltage.
    t_sat_s:
        Saturation times [s]; NaN where the pulse did not saturate.
    final_charge_c:
        Stored charge at the end of each pulse [C].
    q_equilibrium_c:
        Equilibrium charge of each lane [C].
    """

    gate_voltages_v: np.ndarray = field(repr=False)
    results: "tuple[TransientResult, ...]" = field(repr=False)
    t_sat_s: np.ndarray = field(repr=False)
    final_charge_c: np.ndarray = field(repr=False)
    q_equilibrium_c: np.ndarray = field(repr=False)


def transient_sweep(
    device: FloatingGateTransistor,
    bias: BiasCondition,
    gate_voltages_v,
    duration_s: float = 1e-3,
    n_samples: int = 200,
    initial_charge_c: float = 0.0,
) -> TransientSweepResult:
    """Run one program/erase transient per gate voltage.

    Every lane advances together as one vector ODE state through
    :func:`~repro.device.transient.simulate_transient_batch`: a single
    adaptive ``solve_ivp`` call with a declared diagonal Jacobian
    replaces one Python-driven solve per voltage (the benchmarked
    erase-transient path). The per-lane reference is a loop of
    :func:`~repro.device.transient.simulate_transient` calls, and the
    fixed-step fallback is ``simulate_transient_batch(..., method="rk4")``.
    """
    voltages = np.asarray(gate_voltages_v, dtype=float).reshape(-1)
    if voltages.size == 0:
        raise ConfigurationError("need at least one gate voltage")
    results = simulate_transient_batch(
        device,
        tuple(bias.with_gate_voltage(float(vgs)) for vgs in voltages),
        initial_charges_c=initial_charge_c,
        duration_s=duration_s,
        n_samples=n_samples,
    ).results
    t_sat = np.array(
        [r.t_sat_s if r.t_sat_s is not None else np.nan for r in results]
    )
    return TransientSweepResult(
        gate_voltages_v=voltages,
        results=results,
        t_sat_s=t_sat,
        final_charge_c=np.array([r.final_charge_c for r in results]),
        q_equilibrium_c=np.array([r.q_equilibrium_c for r in results]),
    )


@dataclass(frozen=True)
class DesignScreen:
    """Closed-form screen of a design grid (the optimizer's first pass).

    Attributes
    ----------
    program_voltages_v:
        Screened voltages, shape (n_v,) [V].
    tunnel_oxides_nm:
        Screened oxide thicknesses, shape (n_x,) [nm].
    j0_a_m2:
        Zero-charge programming current density, shape (n_v, n_x)
        [A/m^2] -- the paper's Figures 6-7 quantity.
    field_v_per_m:
        Zero-charge tunnel-oxide field, shape (n_v, n_x) [V/m]; the
        programming transient's peak field (V_FG only falls as electrons
        accumulate).
    """

    program_voltages_v: np.ndarray = field(repr=False)
    tunnel_oxides_nm: np.ndarray = field(repr=False)
    j0_a_m2: np.ndarray = field(repr=False)
    field_v_per_m: np.ndarray = field(repr=False)

    def best_point(
        self, max_field_v_per_m: float = np.inf
    ) -> "tuple[float, float] | None":
        """(voltage, oxide) of the fastest lane under a field ceiling.

        Programming speed rises monotonically with J0, so the screened
        optimum is the admissible lane with the highest zero-charge
        current density; None when the whole grid violates the ceiling.
        """
        admissible = self.field_v_per_m <= max_field_v_per_m
        if not np.any(admissible):
            return None
        j = np.where(admissible, self.j0_a_m2, -np.inf)
        iv, ix = np.unravel_index(int(np.argmax(j)), j.shape)
        return (
            float(self.program_voltages_v[iv]),
            float(self.tunnel_oxides_nm[ix]),
        )


def channel_well_sweep(
    surface_fields_v_per_m,
    sheet_density_m2,
    **solver_options,
):
    """Self-consistent channel-well solutions for a whole bias sweep.

    The engine entry point of the batched Poisson-Schrodinger backend:
    forwards to
    :func:`~repro.electrostatics.poisson_schrodinger.solve_channel_well_batch`,
    which advances every surface-field lane through one vectorized
    damped self-consistency loop (batched eigenlevel kernel, vectorized
    Fermi bisection, stacked-RHS Poisson solves, per-lane convergence
    masks). ``solver_options`` are the scalar solver's keyword
    parameters (``n_nodes``, ``n_subbands``, ``temperature_k``, ...);
    each lane matches ``solve_channel_well`` at <= 1e-9. See
    ``benchmarks/test_bench_poisson_schrodinger.py`` for the gated
    speedup.
    """
    from ..electrostatics.poisson_schrodinger import solve_channel_well_batch

    return solve_channel_well_batch(
        surface_fields_v_per_m, sheet_density_m2, **solver_options
    )


def endurance_sweep(
    device: FloatingGateTransistor,
    n_cycles: int,
    n_samples: int = 60,
    pulse_duration_s: float = 1e-4,
    **corner_lanes,
):
    """Endurance wear trajectories for a whole corner sweep at once.

    The engine entry point of the recurrence-based endurance kernel:
    builds one :class:`~repro.reliability.endurance.EnduranceModel`
    for ``device``, runs the two representative stress transients once,
    and evaluates every wear-law corner lane (``corner_lanes`` are the
    per-lane arrays of
    :meth:`~repro.reliability.endurance.EnduranceModel.simulate_batch`,
    e.g. ``trapped_charge_fractions=...`` or
    ``peak_fields_v_per_m=...``) through the closed-form kernel in one
    vectorized evaluation. Each lane matches a scalar
    ``simulate_scalar_reference`` run at <= 1e-9; see
    ``benchmarks/test_bench_endurance.py`` for the gated speedup.
    """
    from ..reliability.endurance import EnduranceModel

    model = EnduranceModel(device, pulse_duration_s=pulse_duration_s)
    return model.simulate_batch(
        n_cycles, n_samples=n_samples, **corner_lanes
    )


def design_screen(
    program_voltages_v,
    tunnel_oxides_nm,
    gcr: float = 0.6,
    barrier_height_ev: float = DEFAULT_BARRIER_HEIGHT_EV,
    mass_ratio: float = DEFAULT_MASS_RATIO,
) -> DesignScreen:
    """Screen a (voltage x oxide) design grid in one vectorized shot.

    Evaluates the zero-charge eq. (3) + (7) state of every grid point --
    the dominant figures of merit at t = 0 -- without building a single
    device object or running a transient. The optimizer uses the result
    to seed its simplex inside the admissible region.
    """
    voltages = np.asarray(program_voltages_v, dtype=float).reshape(-1)
    oxides = np.asarray(tunnel_oxides_nm, dtype=float).reshape(-1)
    spec = BatchSpec(
        gate_voltages_v=voltages[:, np.newaxis],
        gcrs=np.asarray(gcr),
        tunnel_oxides_nm=oxides[np.newaxis, :],
        barrier_height_ev=barrier_height_ev,
        mass_ratio=mass_ratio,
    )
    result = fn_batch(spec)
    return DesignScreen(
        program_voltages_v=voltages,
        tunnel_oxides_nm=oxides,
        j0_a_m2=result.j_magnitude_a_m2,
        field_v_per_m=result.field_v_per_m,
    )


@dataclass(frozen=True)
class ArraySweepResult:
    """Result of programming a batch of page patterns through an array.

    Attributes
    ----------
    pulses_per_page:
        ISPP pulses each page consumed.
    read_bits:
        Sensed read-back of every page (1 = erased), ``(pages, bitlines)``.
    thresholds_v:
        Post-program cell thresholds of every page [V].
    """

    pulses_per_page: np.ndarray
    read_bits: np.ndarray
    thresholds_v: np.ndarray


def array_program_sweep(
    kernel,
    patterns,
    config=None,
    seed: int = 7,
    scalar_reference: bool = False,
) -> ArraySweepResult:
    """Program a ``(pages, bitlines)`` pattern batch through the array backend.

    The engine entry point of the matrix-backed NAND array: builds one
    :class:`~repro.memory.array.VectorMemoryArray` from the calibrated
    cell kernel, programs each pattern row into consecutive pages, and
    senses every page back. With ``scalar_reference=True`` the identical
    sequence routes through the per-cell reference loops on the same RNG
    stream -- the bit-exact twin the gated
    ``benchmarks/test_bench_nand_array.py`` comparison relies on.
    """
    from ..memory.array import ArrayConfig, build_vector_array

    patterns = np.asarray(patterns)
    if patterns.ndim != 2 or patterns.size == 0:
        raise ConfigurationError(
            "patterns must be a non-empty (pages, bitlines) matrix"
        )
    n_pages, bitlines = patterns.shape
    if config is None:
        config = ArrayConfig(
            n_blocks=1, wordlines_per_block=n_pages, bitlines=bitlines
        )
    capacity = config.n_blocks * config.wordlines_per_block
    if n_pages > capacity or bitlines != config.bitlines:
        raise ConfigurationError(
            f"{n_pages} pages of {bitlines} bits do not fit an array of "
            f"{capacity} pages x {config.bitlines} bits"
        )
    array = build_vector_array(
        kernel, config, seed=seed, scalar_reference=scalar_reference
    )
    pulses = np.empty(n_pages, dtype=np.int64)
    read_bits = np.empty((n_pages, bitlines), dtype=np.uint8)
    thresholds = np.empty((n_pages, bitlines))
    for i in range(n_pages):
        block = i // config.wordlines_per_block
        wordline = i % config.wordlines_per_block
        outcome = array.program_page(block, wordline, patterns[i])
        pulses[i] = int(outcome.pulses_used[0])
        read_bits[i] = array.read_page(block, wordline)
        thresholds[i] = array.page_thresholds(block, wordline)
    return ArraySweepResult(
        pulses_per_page=pulses,
        read_bits=read_bits,
        thresholds_v=thresholds,
    )


@dataclass(frozen=True)
class MlcSweepResult:
    """Result of an MLC program/read sweep over a page batch.

    Attributes
    ----------
    thresholds_v:
        Post-staircase cell thresholds, ``(pages, cells)`` [V].
    pulses_per_page:
        Total ISPP pulses each page consumed across the staircase.
    msb_bits, lsb_bits:
        Gray-coded read-back bit planes of every page.
    """

    thresholds_v: np.ndarray
    pulses_per_page: np.ndarray
    msb_bits: np.ndarray
    lsb_bits: np.ndarray


def mlc_program_sweep(
    kernel,
    target_levels,
    guard_fraction: float = 0.1,
    ispp_step_v: float = 0.15,
    noise_sigma_v: float = 0.02,
    seed: int = 31,
    scalar_reference: bool = False,
) -> MlcSweepResult:
    """Run the MLC staircase over a ``(pages, cells)`` target-level batch.

    The engine entry point of the vectorized MLC kernel: derives the
    four levels from the calibrated cell kernel, programs the whole
    matrix of erased cells to the requested levels through
    :func:`~repro.memory.mlc.program_mlc_page_batch` (or its bit-exact
    per-cell twin under ``scalar_reference=True``), and reads every page
    back through the three-reference batch classifier.
    """
    from ..memory.mlc import (
        MlcLevels,
        program_mlc_page_batch,
        program_mlc_page_scalar_reference,
        read_mlc_page_batch,
    )

    levels = MlcLevels.from_kernel(kernel, guard_fraction)
    targets = np.asarray(target_levels)
    if targets.ndim != 2 or targets.size == 0:
        raise ConfigurationError(
            "target_levels must be a non-empty (pages, cells) matrix"
        )
    vt0 = np.full(targets.shape, kernel.erased_vt_v, dtype=float)
    program = (
        program_mlc_page_scalar_reference
        if scalar_reference
        else program_mlc_page_batch
    )
    final_vt, pulses = program(
        vt0,
        levels,
        targets,
        ispp_step_v=ispp_step_v,
        noise_sigma_v=noise_sigma_v,
        rng=np.random.default_rng(seed),
    )
    msb, lsb = read_mlc_page_batch(final_vt, levels)
    return MlcSweepResult(
        thresholds_v=final_vt,
        pulses_per_page=pulses,
        msb_bits=msb,
        lsb_bits=lsb,
    )
