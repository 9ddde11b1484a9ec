"""Incremental step pulse programming (ISPP) with program-verify.

NAND programming alternates short pulses with verify reads: cells that
have crossed the verify level are inhibited from further pulses, which
squeezes the programmed distribution to roughly the ISPP step size
regardless of cell-to-cell speed variation.

:func:`program_page_batch` advances a whole ``(pages, cells)``
threshold matrix with per-cell verify masks, and
:func:`program_page_scalar_reference` replays the identical RNG stream
through per-cell Python loops -- the bit-exact parity twin the
randomized contract suites enforce.

RNG contract of the batch path: every pulse draws one noise value for
**every** cell of the matrix (page-major order), whether or not the
cell is still pending, so the stream layout is a pure function of the
matrix shape and pulse count -- that is what makes the vectorized and
scalar paths consume identical deterministic streams.

Pulse blocks: :func:`program_page_batch` advances ``k = BLOCK_CELLS //
matrix size`` pulses per NumPy pass (at most the pulses left). A block
draws its noise as one ``(k, pages, cells)`` array --
the same stream as ``k`` draws of ``(pages, cells)`` -- takes the
cumulative clamped shifts, and freezes each cell at its first verify
crossing. Shifts are never negative, so clamping the running sum once
at the ceiling equals clamping after every pulse, and the clamped
track never decreases. If the matrix verifies after ``n < k`` pulses,
the generator is restored to its state before the block and exactly
``n`` pulses' worth of noise is redrawn, so later draws match the
one-pulse-at-a-time stream. When ``k`` is below ``MIN_BLOCK_PULSES``
(matrices wider than ``BLOCK_CELLS // MIN_BLOCK_PULSES`` cells, or the
last few pulses under ``max_pulses``) the block is one pulse: one
:func:`ispp_step_batch` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, MemoryOperationError

#: Matrix cells one pulse block spans: a block holds at most this many
#: noise draws, so small pages take many pulses per NumPy pass while
#: pages wider than this pulse once per pass.
BLOCK_CELLS = 1024

#: Shortest block worth its fixed cost (snapshot, redraw and ~15 NumPy
#: calls). Measured on 1x(150-512)-cell pages (2-CPU VM, NumPy 2.4):
#: 2-pulse blocks take ~1.3x and 3-pulse blocks ~1.05x the time of
#: single pulses, 4-pulse blocks ~0.85x, so shorter blocks run one
#: pulse per pass instead.
MIN_BLOCK_PULSES = 4


@dataclass(frozen=True)
class IsppPolicy:
    """ISPP controller settings.

    Attributes
    ----------
    verify_level_v:
        Threshold a cell must exceed to count as programmed [V].
    step_v:
        Staircase voltage increment per pulse; maps one-to-one to the
        per-pulse threshold gain in the steady ISPP regime [V].
    max_pulses:
        Abort limit (program-status failure beyond this).
    first_pulse_shift_v:
        Threshold gain of the first (lowest-voltage) pulse [V].
    noise_sigma_v:
        Per-pulse stochastic spread of the threshold gain [V].
    """

    verify_level_v: float
    step_v: float = 0.3
    max_pulses: int = 24
    first_pulse_shift_v: float = 0.4
    noise_sigma_v: float = 0.05

    def __post_init__(self) -> None:
        if self.step_v <= 0.0:
            raise ConfigurationError("ISPP step must be positive")
        if self.max_pulses < 1:
            raise ConfigurationError("need at least one pulse")
        if self.noise_sigma_v < 0.0:
            raise ConfigurationError("noise sigma cannot be negative")


@dataclass(frozen=True)
class IsppBatchOutcome:
    """Result of programming a ``(pages, cells)`` threshold matrix.

    Attributes
    ----------
    pulses_used:
        Pulses issued per page -- a pulse counts for a page while that
        page still had unverified selected cells; shape ``(pages,)``.
    failed_mask:
        Boolean ``(pages, cells)`` mask of selected cells that never
        reached the verify level.
    final_vt_v:
        The full threshold matrix after the operation.
    """

    pulses_used: np.ndarray
    failed_mask: np.ndarray
    final_vt_v: np.ndarray

    @property
    def success(self) -> bool:
        """Whether every selected cell of every page verified."""
        return not bool(self.failed_mask.any())


def _as_page_matrix(array: np.ndarray, name: str) -> np.ndarray:
    """Validate and return one ``(pages, cells)`` matrix operand."""
    out = np.asarray(array)
    if out.ndim != 2:
        raise MemoryOperationError(
            f"{name} must be a (pages, cells) matrix, got shape {out.shape}"
        )
    if out.size == 0:
        raise MemoryOperationError(f"{name} must hold at least one cell")
    return out


def _check_ceiling(ceiling_v: "np.ndarray | float") -> None:
    """Reject a NaN Vt ceiling (``np.inf`` means no ceiling)."""
    if np.isnan(ceiling_v).any():
        raise MemoryOperationError(
            "ceiling_v holds NaN; use np.inf for an uncapped cell"
        )


def ispp_step_batch(
    vt_v: np.ndarray,
    pending: np.ndarray,
    shift_base_v: float,
    policy: IsppPolicy,
    rng: np.random.Generator,
    ceiling_v: "np.ndarray | float",
) -> "tuple[np.ndarray, np.ndarray]":
    """Advance one ISPP pulse over a ``(pages, cells)`` threshold matrix.

    Draws one noise value per matrix cell (the fixed stream layout of
    the batch RNG contract), applies ``max(shift_base + noise, 0)`` to
    the pending cells only -- capped at the per-cell ``ceiling_v`` --
    and verifies against the policy's verify level. Returns the updated
    ``(vt_v, pending)`` pair; non-pending cells pass through bit-exactly.
    """
    vt_v = _as_page_matrix(vt_v, "vt_v")
    pending = _as_page_matrix(pending, "pending").astype(bool)
    if pending.shape != vt_v.shape:
        raise MemoryOperationError("pending mask must match the Vt matrix")
    noise = rng.normal(0.0, policy.noise_sigma_v, size=vt_v.shape)
    shift = np.maximum(shift_base_v + noise, 0.0)
    bumped = np.minimum(vt_v + shift, ceiling_v)
    vt_new = np.where(pending, bumped, vt_v)
    pending_new = pending & (vt_new < policy.verify_level_v)
    return vt_new, pending_new


def program_page_batch(
    vt_v: np.ndarray,
    select_mask: np.ndarray,
    policy: IsppPolicy,
    rng: np.random.Generator,
    ceiling_v: "np.ndarray | float",
) -> IsppBatchOutcome:
    """Program whole pages of a threshold matrix with vectorized ISPP.

    ``vt_v`` and ``select_mask`` are ``(pages, cells)`` matrices;
    unselected cells are inhibited and pass through untouched. Pulsing
    stops when every selected cell of every page has verified or
    ``policy.max_pulses`` is exhausted; each page's pulse counter stops
    with its own last pending cell.

    Pulses run in blocks of up to ``BLOCK_CELLS // vt_v.size`` per
    NumPy pass (see the module docstring); results and RNG consumption are
    bit-identical to one :func:`ispp_step_batch` call per pulse. A NaN
    anywhere in ``ceiling_v`` raises
    :class:`~repro.errors.MemoryOperationError`.
    """
    vt_v = _as_page_matrix(vt_v, "vt_v").astype(float).copy()
    select = _as_page_matrix(select_mask, "select_mask").astype(bool)
    if select.shape != vt_v.shape:
        raise MemoryOperationError("select mask must match the Vt matrix")
    _check_ceiling(ceiling_v)
    pending = select & (vt_v < policy.verify_level_v)
    pulses = np.zeros(vt_v.shape[0], dtype=np.int64)
    block = BLOCK_CELLS // vt_v.size
    issued = 0
    while pending.any() and issued < policy.max_pulses:
        k = min(block, policy.max_pulses - issued)
        if k < MIN_BLOCK_PULSES:
            shift_base = (
                policy.first_pulse_shift_v if issued == 0 else policy.step_v
            )
            pulses += pending.any(axis=1)
            vt_v, pending = ispp_step_batch(
                vt_v, pending, shift_base, policy, rng, ceiling_v
            )
            issued += 1
        else:
            vt_v, pending, page_pulses = _pulse_block(
                vt_v, pending, k, issued == 0, policy, rng, ceiling_v
            )
            pulses += page_pulses
            issued += int(page_pulses.max())
    return IsppBatchOutcome(
        pulses_used=pulses, failed_mask=pending, final_vt_v=vt_v
    )


def _pulse_block(
    vt_v: np.ndarray,
    pending: np.ndarray,
    k: int,
    first: bool,
    policy: IsppPolicy,
    rng: np.random.Generator,
    ceiling_v: "np.ndarray | float",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Advance up to ``k`` pulses over the matrix in one NumPy pass.

    Returns ``(vt_v, pending, page_pulses)`` exactly as ``k`` single
    pulses would leave them, stopping early once nothing is pending;
    ``page_pulses.max()`` is the number of pulses issued, and the RNG
    has consumed exactly that many pulses' draws.
    """
    snapshot = rng.bit_generator.state
    track = rng.normal(0.0, policy.noise_sigma_v, size=(k,) + vt_v.shape)
    if first:
        track[0] += policy.first_pulse_shift_v
        track[1:] += policy.step_v
    else:
        track += policy.step_v
    np.maximum(track, 0.0, out=track)
    track[0] += vt_v
    np.add.accumulate(track, axis=0, out=track)
    np.minimum(track, ceiling_v, out=track)
    below = track < policy.verify_level_v
    # The track never decreases, so its smallest value at or above the
    # verify level is the first crossing, where verify inhibits the
    # cell; a cell that never crosses ends on the last row.
    settled = np.where(below, track[-1], track).min(axis=0)
    vt_new = np.where(pending, settled, vt_v)
    # A pending cell takes the first pulse plus one per row it ends
    # below the verify level, the last row excepted.
    page_pulses = (
        np.where(pending, below[:-1].sum(axis=0), -1).max(axis=1) + 1
    )
    issued = int(page_pulses.max())
    if issued < k:
        rng.bit_generator.state = snapshot
        rng.normal(0.0, policy.noise_sigma_v, size=(issued,) + vt_v.shape)
    return vt_new, pending & below[-1], page_pulses


def program_page_scalar_reference(
    vt_v: np.ndarray,
    select_mask: np.ndarray,
    policy: IsppPolicy,
    rng: np.random.Generator,
    ceiling_v: "np.ndarray | float",
) -> IsppBatchOutcome:
    """The per-cell ISPP loop under the batch RNG contract.

    Identical semantics to :func:`program_page_batch` -- same pulse
    schedule, same per-cell noise draws in page-major order -- executed
    one cell at a time in Python. The contract suites pin the two paths
    bit-exactly; benchmarks time this loop as the scalar baseline.
    """
    vt_v = _as_page_matrix(vt_v, "vt_v").astype(float).copy()
    select = _as_page_matrix(select_mask, "select_mask").astype(bool)
    if select.shape != vt_v.shape:
        raise MemoryOperationError("select mask must match the Vt matrix")
    _check_ceiling(ceiling_v)
    n_pages, n_cells = vt_v.shape
    ceiling = np.broadcast_to(
        np.asarray(ceiling_v, dtype=float), vt_v.shape
    )
    pending = [
        [select[p, c] and vt_v[p, c] < policy.verify_level_v for c in range(n_cells)]
        for p in range(n_pages)
    ]
    pulses = np.zeros(n_pages, dtype=np.int64)
    issued = 0
    while any(any(row) for row in pending) and issued < policy.max_pulses:
        shift_base = (
            policy.first_pulse_shift_v if issued == 0 else policy.step_v
        )
        for p in range(n_pages):
            if any(pending[p]):
                pulses[p] += 1
        for p in range(n_pages):
            for c in range(n_cells):
                noise = float(rng.normal(0.0, policy.noise_sigma_v))
                if not pending[p][c]:
                    continue
                shift = max(shift_base + noise, 0.0)
                vt_v[p, c] = min(vt_v[p, c] + shift, ceiling[p, c])
                if vt_v[p, c] >= policy.verify_level_v:
                    pending[p][c] = False
        issued += 1
    failed = np.array(pending, dtype=bool).reshape(n_pages, n_cells)
    return IsppBatchOutcome(
        pulses_used=pulses, failed_mask=failed, final_vt_v=vt_v
    )
