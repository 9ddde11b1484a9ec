"""Piecewise-constant transfer-matrix transmission solver.

Computes the exact quantum-mechanical transmission probability through an
arbitrary 1-D potential profile approximated by constant-potential slabs,
with BenDaniel-Duke (mass-weighted) interface matching. This is the
reference model that the Fowler-Nordheim closed form and the WKB
approximation are benchmarked against in the ablation experiments.

Two evaluation paths share the same matrix algebra:

* :func:`transmission_probability` -- the scalar reference, one energy
  per call, multiplying 2x2 interface/propagation matrices in Python.
* :func:`transmission_probability_batch` -- the vectorized backend: the
  per-segment matrices are stacked over the energy axis as
  ``(n_energy, 2, 2)`` arrays and reduced with batched ``matmul`` in the
  identical left-to-right order, so every energy lane reproduces the
  scalar result to floating-point round-off while the whole
  Tsu-Esaki energy grid costs one pass over the segments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..constants import HBAR
from ..errors import ConfigurationError


@dataclass(frozen=True)
class BarrierSegment:
    """One constant-potential slab of a piecewise barrier.

    Attributes
    ----------
    width_m:
        Slab thickness [m]; must be positive.
    potential_j:
        Potential energy inside the slab [J].
    mass_kg:
        Effective mass inside the slab [kg].
    """

    width_m: float
    potential_j: float
    mass_kg: float

    def __post_init__(self) -> None:
        if self.width_m <= 0.0:
            raise ConfigurationError("segment width must be positive")
        if self.mass_kg <= 0.0:
            raise ConfigurationError("segment mass must be positive")


@dataclass(frozen=True)
class PiecewiseBarrier:
    """A 1-D barrier between two semi-infinite leads.

    Attributes
    ----------
    segments:
        The slabs, ordered from the left lead to the right lead.
    lead_potential_left_j, lead_potential_right_j:
        Asymptotic potentials of the leads [J].
    lead_mass_left_kg, lead_mass_right_kg:
        Effective masses in the leads [kg].
    """

    segments: Sequence[BarrierSegment]
    lead_potential_left_j: float = 0.0
    lead_potential_right_j: float = 0.0
    lead_mass_left_kg: float = 9.1093837015e-31
    lead_mass_right_kg: float = 9.1093837015e-31

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("barrier needs at least one segment")
        if self.lead_mass_left_kg <= 0.0 or self.lead_mass_right_kg <= 0.0:
            raise ConfigurationError("lead masses must be positive")

    @property
    def total_width_m(self) -> float:
        """Total barrier thickness [m]."""
        return sum(seg.width_m for seg in self.segments)

    @staticmethod
    def from_profile(
        potential_fn: Callable[[float], float],
        width_m: float,
        mass_kg: float,
        n_slabs: int = 200,
        lead_potential_left_j: float = 0.0,
        lead_potential_right_j: float = 0.0,
        lead_mass_kg: float = 9.1093837015e-31,
    ) -> "PiecewiseBarrier":
        """Discretise a smooth potential profile into equal-width slabs.

        ``potential_fn`` maps position in ``[0, width_m]`` to potential
        energy [J]; each slab takes the profile value at its midpoint.
        """
        if width_m <= 0.0:
            raise ConfigurationError("barrier width must be positive")
        if n_slabs < 1:
            raise ConfigurationError("need at least one slab")
        dx = width_m / n_slabs
        midpoints = (np.arange(n_slabs) + 0.5) * dx
        segments = tuple(
            BarrierSegment(dx, float(potential_fn(float(x))), mass_kg)
            for x in midpoints
        )
        return PiecewiseBarrier(
            segments=segments,
            lead_potential_left_j=lead_potential_left_j,
            lead_potential_right_j=lead_potential_right_j,
            lead_mass_left_kg=lead_mass_kg,
            lead_mass_right_kg=lead_mass_kg,
        )


#: Energy floor regularising E == V exactly at a band edge [J] (1 neV).
_EDGE_EPSILON_J = 1.602176634e-28


def _wavevector(energy_j: float, potential_j: float, mass_kg: float) -> complex:
    """Complex wavevector ``k = sqrt(2m(E - V))/hbar`` (evanescent if E < V).

    Energies at a band edge (|E - V| below one nano-eV, which covers
    E == V and slabs a rounding error away from it) give k ~ 0, which
    breaks the interface matching; they are set to one nano-eV above
    the edge, a regularisation that keeps T(E) continuous.
    """
    delta = energy_j - potential_j
    if abs(delta) < _EDGE_EPSILON_J:
        delta = _EDGE_EPSILON_J
    return cmath.sqrt(2.0 * mass_kg * complex(delta)) / HBAR


def _wavevector_array(
    energies_j: np.ndarray, potential_j: float, mass_kg: float
) -> np.ndarray:
    """Vectorized :func:`_wavevector`: complex ``k(E)`` for an energy array.

    Applies the same one-nano-eV band-edge nudge as the scalar form so
    batch lanes stay bit-comparable with per-energy calls.
    """
    delta = energies_j - potential_j
    delta = np.where(np.abs(delta) < _EDGE_EPSILON_J, _EDGE_EPSILON_J, delta)
    return np.sqrt(2.0 * mass_kg * delta.astype(complex)) / HBAR


def transmission_probability_batch(
    barrier: PiecewiseBarrier, energies_j
) -> np.ndarray:
    """Batched :func:`transmission_probability` over an energy array.

    Parameters
    ----------
    barrier:
        Piecewise-constant barrier specification (shared by all lanes).
    energies_j:
        Incident energies [J]; any array shape (or a scalar).

    Returns
    -------
    numpy.ndarray
        Transmission probabilities with the shape of ``energies_j``;
        each lane matches the scalar reference to round-off. The
        reduction walks the segments once, multiplying stacked
        ``(n_energy, 2, 2)`` interface/propagation matrices with batched
        ``matmul`` in the scalar path's left-to-right order (the
        diagonal propagation factor is fused as a column scaling, which
        is the same arithmetic as the explicit matrix product).
    """
    shape = np.shape(energies_j)
    energies = np.asarray(energies_j, dtype=float).reshape(-1)
    n = energies.size

    # Region list: left lead | slabs | right lead (wavevectors (n,)).
    ks = [
        _wavevector_array(
            energies, barrier.lead_potential_left_j, barrier.lead_mass_left_kg
        )
    ]
    masses = [barrier.lead_mass_left_kg]
    widths = [0.0]
    for seg in barrier.segments:
        ks.append(_wavevector_array(energies, seg.potential_j, seg.mass_kg))
        masses.append(seg.mass_kg)
        widths.append(seg.width_m)
    ks.append(
        _wavevector_array(
            energies, barrier.lead_potential_right_j, barrier.lead_mass_right_kg
        )
    )
    masses.append(barrier.lead_mass_right_kg)
    k_left, k_right = ks[0], ks[-1]

    total = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    interface = np.empty((n, 2, 2), dtype=complex)
    for j in range(len(ks) - 1):
        r = (ks[j + 1] * masses[j]) / (ks[j] * masses[j + 1])
        half_plus = 0.5 * (1.0 + r)
        half_minus = 0.5 * (1.0 - r)
        interface[:, 0, 0] = half_plus
        interface[:, 0, 1] = half_minus
        interface[:, 1, 0] = half_minus
        interface[:, 1, 1] = half_plus
        if j + 1 < len(ks) - 1:
            phase = ks[j + 1] * widths[j + 1]
            step = interface.copy()
            step[:, :, 0] *= np.exp(-1j * phase)[:, np.newaxis]
            step[:, :, 1] *= np.exp(1j * phase)[:, np.newaxis]
            total = total @ step
        else:
            total = total @ interface

    m00 = total[:, 0, 0]
    zero_m00 = m00 == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_amplitude = 1.0 / np.where(zero_m00, 1.0, m00)
        flux_ratio = (k_right.real / barrier.lead_mass_right_kg) / (
            k_left.real / barrier.lead_mass_left_kg
        )
        t_prob = flux_ratio * np.abs(t_amplitude) ** 2
    t_prob = np.where(zero_m00, 1.0, t_prob)
    t_prob = np.where(np.isfinite(t_prob), t_prob, 0.0)
    t_prob = np.clip(t_prob, 0.0, 1.0)
    evanescent = (energies <= barrier.lead_potential_left_j) | (
        energies <= barrier.lead_potential_right_j
    )
    t_prob = np.where(evanescent, 0.0, t_prob)
    return t_prob.reshape(shape)


def transmission_probability(barrier: PiecewiseBarrier, energy_j: float) -> float:
    """Exact transmission probability ``T(E)`` through the barrier.

    Parameters
    ----------
    barrier:
        Piecewise-constant barrier specification.
    energy_j:
        Incident electron energy [J], measured on the same scale as the
        segment potentials. Must be above both lead potentials for a
        propagating scattering state; otherwise the transmission is zero.

    Returns
    -------
    float
        Transmission probability in ``[0, 1]``.
    """
    if energy_j <= barrier.lead_potential_left_j:
        return 0.0
    if energy_j <= barrier.lead_potential_right_j:
        return 0.0

    k_left = _wavevector(
        energy_j, barrier.lead_potential_left_j, barrier.lead_mass_left_kg
    )
    k_right = _wavevector(
        energy_j, barrier.lead_potential_right_j, barrier.lead_mass_right_kg
    )

    # Build the region list: left lead | slabs | right lead.
    ks = [k_left]
    masses = [barrier.lead_mass_left_kg]
    widths = [0.0]
    for seg in barrier.segments:
        ks.append(_wavevector(energy_j, seg.potential_j, seg.mass_kg))
        masses.append(seg.mass_kg)
        widths.append(seg.width_m)
    ks.append(k_right)
    masses.append(barrier.lead_mass_right_kg)

    # Transfer matrix taking right-lead coefficients to left-lead ones:
    # (A_L, B_L)^T = M (A_R, B_R)^T with B_R = 0 => t = 1 / M[0, 0].
    total = np.eye(2, dtype=complex)
    for j in range(len(ks) - 1):
        k1, m1 = ks[j], masses[j]
        k2, m2 = ks[j + 1], masses[j + 1]
        # Velocity ratio for BenDaniel-Duke matching psi'/m continuity.
        r = (k2 * m1) / (k1 * m2)
        interface = 0.5 * np.array(
            [[1.0 + r, 1.0 - r], [1.0 - r, 1.0 + r]], dtype=complex
        )
        if j + 1 < len(ks) - 1:
            phase = ks[j + 1] * widths[j + 1]
            propagation = np.array(
                [
                    [cmath.exp(-1j * phase), 0.0],
                    [0.0, cmath.exp(1j * phase)],
                ],
                dtype=complex,
            )
            total = total @ interface @ propagation
        else:
            total = total @ interface

    m00 = total[0, 0]
    if m00 == 0:
        return 1.0
    t_amplitude = 1.0 / m00
    flux_ratio = (k_right.real / barrier.lead_mass_right_kg) / (
        k_left.real / barrier.lead_mass_left_kg
    )
    t_prob = flux_ratio * abs(t_amplitude) ** 2
    if not math.isfinite(t_prob):
        return 0.0
    return float(min(max(t_prob, 0.0), 1.0))
