"""Block/page-organised NAND memory array.

Groups NAND strings into erase blocks and word-line pages -- the
granularity mismatch (program by page, erase by block) that motivates
the flash translation layer. Built entirely on the device-calibrated
cell kernel.

The array is one :class:`VectorMemoryArray` over an
:class:`ArrayState` of whole-array ``(blocks, wordlines, bitlines)``
threshold matrices: a NAND string is one bit-line column of a block,
a page one word-line row. Program/read/erase/disturb operations run
through the vectorized page kernels -- or, with
``scalar_reference=True``, through their bit-exact per-cell Python
twins, which is how the parity contracts and the gated benchmarks
compare the two paths on identical RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, MemoryOperationError
from .cell import CellKernel
from .disturb import (
    DisturbModel,
    apply_program_disturb_batch,
    apply_program_disturb_scalar_reference,
    apply_read_disturb_batch,
    apply_read_disturb_scalar_reference,
)
from .ispp import (
    IsppBatchOutcome,
    IsppPolicy,
    program_page_batch,
    program_page_scalar_reference,
)
from .sense import SenseAmplifier


@dataclass(frozen=True)
class ArrayConfig:
    """Dimensions and policies of a memory array.

    Attributes
    ----------
    n_blocks:
        Erase blocks.
    wordlines_per_block:
        Pages per block.
    bitlines:
        Cells per page (page size in bits).
    process_sigma_v:
        Cell-to-cell threshold spread at manufacture [V].
    """

    n_blocks: int = 4
    wordlines_per_block: int = 16
    bitlines: int = 64
    process_sigma_v: float = 0.08

    def __post_init__(self) -> None:
        if min(self.n_blocks, self.wordlines_per_block, self.bitlines) < 1:
            raise ConfigurationError("array dimensions must be positive")


@dataclass
class ArrayState:
    """Whole-array cell state as ``(blocks, wordlines, bitlines)`` matrices.

    Attributes
    ----------
    vt_v:
        Current threshold of every cell [V].
    offsets_v:
        Static process-variation offset of every cell [V].
    programmed:
        Boolean nominal-logic-state matrix (True = programmed '0').
    pe_cycles:
        Program/erase cycles endured per cell.
    erase_counts:
        Erase counter per block (wear-levelling telemetry).
    read_counts:
        Reads issued per page.
    """

    vt_v: np.ndarray
    offsets_v: np.ndarray
    programmed: np.ndarray
    pe_cycles: np.ndarray
    erase_counts: np.ndarray
    read_counts: np.ndarray

    @property
    def n_cells(self) -> int:
        """Total cell count of the array."""
        return int(self.vt_v.size)


@dataclass
class VectorMemoryArray:
    """Matrix-backed NAND array: one Vt matrix holds every cell.

    Page/block addressing with the flash constraints enforced (program
    by page after erase, erase by block); every operation is a
    whole-page or whole-block array program through the ``*_batch``
    kernels of :mod:`~repro.memory.ispp`, :mod:`~repro.memory.sense`
    and :mod:`~repro.memory.disturb`. With
    ``scalar_reference=True`` the identical operations route through
    the per-cell ``*_scalar_reference`` loops on the same RNG stream,
    so the two modes are bit-identical -- the contract the randomized
    parity suites and the gated benchmarks enforce.

    Build with :func:`build_vector_array`.
    """

    config: ArrayConfig
    kernel: CellKernel
    ispp: IsppPolicy
    sense: SenseAmplifier
    rng: np.random.Generator
    state: ArrayState
    disturb: "DisturbModel | None" = None
    scalar_reference: bool = False
    erase_noise_sigma_v: float = 0.05
    programmed_pages: "list[set[int]]" = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.programmed_pages:
            self.programmed_pages = [
                set() for _ in range(self.config.n_blocks)
            ]

    # ----- addressing ----------------------------------------------------

    def _check_page(self, block: int, wordline: int) -> None:
        if not 0 <= block < self.config.n_blocks:
            raise MemoryOperationError(f"block {block} out of range")
        if not 0 <= wordline < self.config.wordlines_per_block:
            raise MemoryOperationError(
                f"wordline {wordline} outside block of "
                f"{self.config.wordlines_per_block}"
            )

    def is_page_free(self, block: int, wordline: int) -> bool:
        """Whether a page may be programmed without an erase first."""
        self._check_page(block, wordline)
        return wordline not in self.programmed_pages[block]

    # ----- operations ----------------------------------------------------

    def program_page(
        self, block: int, wordline: int, bits: np.ndarray
    ) -> IsppBatchOutcome:
        """Program one page with a bit pattern (1 = erased/inhibited).

        One vectorized ISPP run over the page row of the Vt matrix,
        followed by one boolean-indexed program-disturb accumulation
        over the rest of the block (when a disturb model is attached).
        Returns the ISPP outcome for telemetry.

        Raises
        ------
        MemoryOperationError
            If the page was already programmed since its last erase, or
            if ISPP fails to verify every selected cell.
        """
        self._check_page(block, wordline)
        if wordline in self.programmed_pages[block]:
            raise MemoryOperationError(
                f"page ({block}, {wordline}) already programmed; erase first"
            )
        bits = np.asarray(bits)
        if bits.size != self.config.bitlines:
            raise MemoryOperationError(
                f"need {self.config.bitlines} bits, got {bits.size}"
            )
        select = (bits.astype(np.int64) == 0).reshape(1, -1)
        vt_page = self.state.vt_v[block, wordline].reshape(1, -1)
        ceiling = (
            self.kernel.programmed_vt_v
            + self.state.offsets_v[block, wordline]
        ).reshape(1, -1)
        program = (
            program_page_scalar_reference
            if self.scalar_reference
            else program_page_batch
        )
        outcome = program(vt_page, select, self.ispp, self.rng, ceiling)
        if not outcome.success:
            raise MemoryOperationError(
                f"program-status fail on page ({block}, {wordline}): "
                f"{int(outcome.failed_mask.sum())} cells never verified"
            )
        self.state.vt_v[block, wordline] = outcome.final_vt_v[0]
        self.state.programmed[block, wordline] |= select[0]
        if self.disturb is not None:
            drift = self.disturb.drift_per_event_v()
            accumulate = (
                apply_program_disturb_scalar_reference
                if self.scalar_reference
                else apply_program_disturb_batch
            )
            accumulate(
                self.state.vt_v[block], wordline, select[0], drift
            )
        self.programmed_pages[block].add(wordline)
        return outcome

    def read_page(self, block: int, wordline: int) -> np.ndarray:
        """Read one page into a bit array (1 = erased).

        One vectorized sense comparison over the page row, plus one
        read-disturb accumulation over the rest of the block when a
        disturb model is attached.
        """
        self._check_page(block, wordline)
        sense = (
            self.sense.sense_page_scalar_reference
            if self.scalar_reference
            else self.sense.sense_page_batch
        )
        bits = sense(self.state.vt_v[block, wordline], self.rng)
        self.state.read_counts[block, wordline] += 1
        if self.disturb is not None:
            drift = self.disturb.drift_per_event_v()
            accumulate = (
                apply_read_disturb_scalar_reference
                if self.scalar_reference
                else apply_read_disturb_batch
            )
            accumulate(self.state.vt_v[block], wordline, drift)
        return bits

    def erase_block(self, block: int) -> None:
        """Erase a whole block back to the erased distribution.

        One vectorized noise draw re-seats every cell of the block at
        ``erased_vt + offset + noise`` (per-cell draws in the same
        C order under ``scalar_reference``).
        """
        self._check_page(block, 0)
        shape = self.state.vt_v[block].shape
        if self.scalar_reference:
            noise = np.empty(shape)
            flat = noise.reshape(-1)
            for i in range(flat.size):
                flat[i] = float(
                    self.rng.normal(0.0, self.erase_noise_sigma_v)
                )
        else:
            noise = self.rng.normal(
                0.0, self.erase_noise_sigma_v, size=shape
            )
        self.state.vt_v[block] = (
            self.kernel.erased_vt_v + self.state.offsets_v[block] + noise
        )
        self.state.programmed[block] = False
        self.state.pe_cycles[block] += 1
        self.state.erase_counts[block] += 1
        self.programmed_pages[block].clear()

    # ----- telemetry ------------------------------------------------------

    def block_erase_counts(self) -> "list[int]":
        """Erase counter of every block (wear-levelling telemetry)."""
        return [int(c) for c in self.state.erase_counts]

    def page_thresholds(self, block: int, wordline: int) -> np.ndarray:
        """Raw cell thresholds of a page (for distribution analysis)."""
        self._check_page(block, wordline)
        return self.state.vt_v[block, wordline].copy()


def build_vector_array(
    kernel: CellKernel,
    config: "ArrayConfig | None" = None,
    ispp: "IsppPolicy | None" = None,
    sense: "SenseAmplifier | None" = None,
    disturb: "DisturbModel | None" = None,
    seed: int = 7,
    scalar_reference: bool = False,
) -> VectorMemoryArray:
    """Manufacture a matrix-backed array from a calibrated cell kernel.

    Default ISPP verify and sense reference levels sit at 2/3 and 1/2
    of the calibrated memory window respectively. Process
    offsets are drawn as one ``(blocks, wordlines, bitlines)`` matrix;
    the ``scalar_reference`` flag routes every subsequent *operation*
    through the per-cell reference loops, so two arrays built with the
    same seed -- one per mode -- stay bit-identical through any shared
    operation sequence.
    """
    config = config or ArrayConfig()
    window = kernel.window_v
    ispp = ispp or IsppPolicy(
        verify_level_v=kernel.erased_vt_v + 0.67 * window,
        step_v=max(0.05 * window, 0.1),
        first_pulse_shift_v=max(0.1 * window, 0.2),
    )
    sense = sense or SenseAmplifier(
        reference_v=kernel.erased_vt_v + 0.5 * window
    )
    rng = np.random.default_rng(seed)
    shape = (config.n_blocks, config.wordlines_per_block, config.bitlines)
    offsets = rng.normal(0.0, config.process_sigma_v, size=shape)
    state = ArrayState(
        vt_v=kernel.erased_vt_v + offsets,
        offsets_v=offsets,
        programmed=np.zeros(shape, dtype=bool),
        pe_cycles=np.zeros(shape, dtype=np.int64),
        erase_counts=np.zeros(config.n_blocks, dtype=np.int64),
        read_counts=np.zeros(shape[:2], dtype=np.int64),
    )
    return VectorMemoryArray(
        config=config,
        kernel=kernel,
        ispp=ispp,
        sense=sense,
        rng=rng,
        state=state,
        disturb=disturb,
        scalar_reference=scalar_reference,
    )

