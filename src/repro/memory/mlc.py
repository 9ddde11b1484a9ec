"""Multi-level cell (MLC) support: two bits per floating gate.

The memory window of the MLGNR-CNT cell (~8-10 V saturated) is wide
enough to hold four threshold levels. This module partitions the
window into four target states with Gray-coded bit assignments,
programs cells level-by-level with the same ISPP machinery, and reads
them back with three references -- the standard MLC flow, driven
entirely by the device-calibrated kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, MemoryOperationError
from .cell import CellKernel
from .ispp import (
    IsppPolicy,
    _as_page_matrix,
    program_page_batch,
    program_page_scalar_reference,
)

#: Gray code for the four levels, lowest threshold first. L0 (erased)
#: holds '11'; each step changes one bit.
GRAY_BITS = ((1, 1), (1, 0), (0, 0), (0, 1))

#: Vectorized lookup tables of :data:`GRAY_BITS` (level index -> bit).
_GRAY_MSB = np.array([b[0] for b in GRAY_BITS], dtype=np.uint8)
_GRAY_LSB = np.array([b[1] for b in GRAY_BITS], dtype=np.uint8)


@dataclass(frozen=True)
class MlcLevels:
    """The four MLC target states derived from a calibrated kernel.

    Attributes
    ----------
    targets_v:
        Verify thresholds of levels L0..L3 [V]; L0 is the erased state.
    references_v:
        The three read references separating adjacent levels [V].
    """

    targets_v: "tuple[float, float, float, float]"
    references_v: "tuple[float, float, float]"

    @staticmethod
    def from_kernel(
        kernel: CellKernel, guard_fraction: float = 0.1
    ) -> "MlcLevels":
        """Partition the kernel's window into four evenly spaced levels.

        ``guard_fraction`` reserves margin at both window edges so L0
        keeps distance from the deepest-erased cells and L3 from the
        programming ceiling.
        """
        if not 0.0 <= guard_fraction < 0.5:
            raise ConfigurationError("guard fraction must be in [0, 0.5)")
        lo = kernel.erased_vt_v + guard_fraction * kernel.window_v
        hi = kernel.programmed_vt_v - guard_fraction * kernel.window_v
        targets = tuple(np.linspace(lo, hi, 4))
        references = tuple(
            0.5 * (a + b) for a, b in zip(targets, targets[1:])
        )
        return MlcLevels(targets_v=targets, references_v=references)

    def level_of(self, vt_v: float) -> int:
        """Level index (0-3) a threshold reads as."""
        level = 0
        for ref in self.references_v:
            if vt_v > ref:
                level += 1
        return level

    def level_of_batch(self, vt_v: np.ndarray) -> np.ndarray:
        """Level indices (0-3) of a whole threshold array at once.

        The vectorized form of :meth:`level_of`: each threshold is
        compared against the three read references in one broadcast,
        so MLC read-back of a ``(pages, cells)`` matrix costs three
        comparisons instead of a per-cell Python loop.
        """
        vt = np.asarray(vt_v, dtype=float)
        refs = np.asarray(self.references_v, dtype=float)
        return (vt[..., np.newaxis] > refs).sum(axis=-1).astype(np.int64)


def bits_to_level(msb: int, lsb: int) -> int:
    """Gray-coded (msb, lsb) pair -> level index."""
    try:
        return GRAY_BITS.index((int(msb), int(lsb)))
    except ValueError:
        raise MemoryOperationError(f"bits must be 0/1, got ({msb}, {lsb})")


def level_to_bits(level: int) -> "tuple[int, int]":
    """Level index -> Gray-coded (msb, lsb) pair."""
    if not 0 <= level < 4:
        raise MemoryOperationError(f"level must be 0-3, got {level}")
    return GRAY_BITS[level]


def _mlc_policy(
    levels: MlcLevels, level: int, ispp_step_v: float, noise_sigma_v: float
) -> IsppPolicy:
    """The per-level ISPP policy shared by every MLC program path."""
    return IsppPolicy(
        verify_level_v=levels.targets_v[level],
        step_v=ispp_step_v,
        first_pulse_shift_v=ispp_step_v,
        noise_sigma_v=noise_sigma_v,
        max_pulses=200,
    )


def _program_mlc_matrix(
    vt_v: np.ndarray,
    levels: MlcLevels,
    target_levels: np.ndarray,
    ispp_step_v: float,
    noise_sigma_v: float,
    rng: "np.random.Generator | None",
    ceiling_v: "np.ndarray | float",
    kernel,
) -> "tuple[np.ndarray, np.ndarray]":
    """Shared staircase driver of the batch and scalar-reference paths."""
    vt_v = _as_page_matrix(vt_v, "vt_v").astype(float)
    targets = _as_page_matrix(target_levels, "target_levels")
    if targets.shape != vt_v.shape:
        raise MemoryOperationError("one target level per cell required")
    targets = targets.astype(np.int64)
    if ((targets < 0) | (targets > 3)).any():
        raise MemoryOperationError("levels must be 0-3")
    rng = rng or np.random.default_rng(31)

    total_pulses = np.zeros(vt_v.shape[0], dtype=np.int64)
    for level in (1, 2, 3):
        mask = targets == level
        if not mask.any():
            continue
        policy = _mlc_policy(levels, level, ispp_step_v, noise_sigma_v)
        outcome = kernel(vt_v, mask, policy, rng, ceiling_v)
        if not outcome.success:
            raise MemoryOperationError(
                f"MLC level {level} failed verify on "
                f"{int(outcome.failed_mask.sum())} cells"
            )
        vt_v = outcome.final_vt_v
        total_pulses += outcome.pulses_used
    return vt_v, total_pulses


def program_mlc_page_batch(
    vt_v: np.ndarray,
    levels: MlcLevels,
    target_levels: np.ndarray,
    ispp_step_v: float = 0.15,
    noise_sigma_v: float = 0.02,
    rng: "np.random.Generator | None" = None,
    ceiling_v: "np.ndarray | float" = np.inf,
) -> "tuple[np.ndarray, np.ndarray]":
    """Program a ``(pages, cells)`` threshold matrix to per-cell MLC levels.

    Levels are programmed lowest-first (L1, L2, L3) -- the standard
    staircase -- each pass running the whole matrix through
    :func:`~repro.memory.ispp.program_page_batch` with that level's
    verify mask, so already-placed levels stay undisturbed.
    Returns ``(final_vt_v, pulses_per_page)``; a level whose verify
    fails anywhere raises :class:`~repro.errors.MemoryOperationError`.
    A staircase pass with no targeted cells anywhere is skipped without
    consuming RNG draws (the same stream rule the scalar reference
    replays).
    """
    return _program_mlc_matrix(
        vt_v,
        levels,
        target_levels,
        ispp_step_v,
        noise_sigma_v,
        rng,
        ceiling_v,
        program_page_batch,
    )


def program_mlc_page_scalar_reference(
    vt_v: np.ndarray,
    levels: MlcLevels,
    target_levels: np.ndarray,
    ispp_step_v: float = 0.15,
    noise_sigma_v: float = 0.02,
    rng: "np.random.Generator | None" = None,
    ceiling_v: "np.ndarray | float" = np.inf,
) -> "tuple[np.ndarray, np.ndarray]":
    """The per-cell MLC staircase; bit-exact twin of the batch path.

    Runs the identical level schedule through the per-cell Python loop
    of :func:`~repro.memory.ispp.program_page_scalar_reference`, so a
    shared seed reproduces :func:`program_mlc_page_batch` exactly.
    """
    return _program_mlc_matrix(
        vt_v,
        levels,
        target_levels,
        ispp_step_v,
        noise_sigma_v,
        rng,
        ceiling_v,
        program_page_scalar_reference,
    )


def read_mlc_page_batch(
    vt_v: np.ndarray, levels: MlcLevels
) -> "tuple[np.ndarray, np.ndarray]":
    """Read a threshold matrix back as Gray-coded (msb, lsb) bit matrices.

    Three vectorized reference comparisons classify every cell of the
    ``(pages, cells)`` matrix at once, then the Gray lookup tables map
    level indices to bit planes.
    """
    level = levels.level_of_batch(_as_page_matrix(vt_v, "vt_v"))
    return _GRAY_MSB[level], _GRAY_LSB[level]
