"""Flash translation layer: logical pages over erase-block flash.

A minimal but complete page-mapped FTL:

* logical-to-physical page map with out-of-place updates,
* greedy garbage collection (victim = most invalid pages) with live-page
  relocation,
* wear-aware free-block allocation (lowest erase count first),
* write-amplification telemetry.

The FTL operates purely on the
:class:`repro.memory.array.VectorMemoryArray` interface, so every
logical write really lands in device-calibrated cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, MemoryOperationError
from .array import VectorMemoryArray


@dataclass
class FtlStats:
    """Telemetry counters of the translation layer."""

    host_writes: int = 0
    physical_writes: int = 0
    gc_relocations: int = 0
    gc_invocations: int = 0
    block_erases: int = 0

    @property
    def write_amplification(self) -> float:
        """Physical-to-host write ratio (1.0 is ideal)."""
        if self.host_writes == 0:
            return 1.0
        return self.physical_writes / self.host_writes


@dataclass
class PageMappedFtl:
    """Page-level translation layer over a memory array.

    Attributes
    ----------
    array:
        The physical array.
    overprovision_blocks:
        Blocks withheld from the logical capacity as GC headroom.
    """

    array: VectorMemoryArray
    overprovision_blocks: int = 1
    stats: FtlStats = field(default_factory=FtlStats)

    def __post_init__(self) -> None:
        cfg = self.array.config
        if self.overprovision_blocks < 1:
            raise ConfigurationError(
                "need at least one over-provisioned block for GC"
            )
        if self.overprovision_blocks >= cfg.n_blocks:
            raise ConfigurationError(
                "over-provisioning cannot consume every block"
            )
        self._pages_per_block = cfg.wordlines_per_block
        self._n_physical_pages = cfg.n_blocks * self._pages_per_block
        #: logical page -> physical page (block * pages_per_block + wl)
        self._map: "dict[int, int]" = {}
        #: physical page -> logical page (None = invalid/garbage)
        self._reverse: "dict[int, int]" = {}
        self._free_pages_in_block = {
            b: list(range(self._pages_per_block))
            for b in range(cfg.n_blocks)
        }
        self._invalid_in_block = {b: 0 for b in range(cfg.n_blocks)}

    # ----- capacity -------------------------------------------------------

    @property
    def logical_capacity_pages(self) -> int:
        """Host-visible number of logical pages."""
        usable = self.array.config.n_blocks - self.overprovision_blocks
        return usable * self._pages_per_block

    # ----- internals ------------------------------------------------------

    def _physical_address(self, physical_page: int) -> "tuple[int, int]":
        return divmod(physical_page, self._pages_per_block)

    def _allocate_page(self) -> int:
        """Pick a free physical page, GC-ing if necessary."""
        block = self._pick_allocation_block()
        if block is None:
            self._garbage_collect()
            block = self._pick_allocation_block()
            if block is None:
                raise MemoryOperationError(
                    "no free pages even after garbage collection"
                )
        wordline = self._free_pages_in_block[block].pop(0)
        return block * self._pages_per_block + wordline

    def _pick_allocation_block(self) -> "int | None":
        """Least-worn block that still has free pages."""
        candidates = [
            b
            for b, free in self._free_pages_in_block.items()
            if free
        ]
        if not candidates:
            return None
        erase_counts = self.array.block_erase_counts()
        return min(candidates, key=lambda b: (erase_counts[b], b))

    def _garbage_collect(self) -> None:
        """Wear-normalised greedy GC.

        Victim score is the reclaimable page count discounted by how
        much more worn the block is than its least-worn peer, so a hot
        block does not get erased over and over while cold blocks idle.
        """
        self.stats.gc_invocations += 1
        erase_counts = self.array.block_erase_counts()
        min_erases = min(erase_counts)

        def score(b: int) -> float:
            wear_penalty = 1.0 + 0.5 * (erase_counts[b] - min_erases)
            return self._invalid_in_block[b] / wear_penalty

        victim = max(range(self.array.config.n_blocks), key=score)
        if self._invalid_in_block[victim] == 0:
            raise MemoryOperationError(
                "garbage collection found no reclaimable space "
                "(array over-full)"
            )
        # Relocate live pages out of the victim.
        live = [
            (ppage, lpage)
            for ppage, lpage in list(self._reverse.items())
            if ppage // self._pages_per_block == victim
        ]
        relocated = []
        for ppage, lpage in live:
            block, wl = self._physical_address(ppage)
            bits = self.array.read_page(block, wl)
            relocated.append((lpage, bits))
            del self._reverse[ppage]

        self.array.erase_block(victim)
        self.stats.block_erases += 1
        self._free_pages_in_block[victim] = list(
            range(self._pages_per_block)
        )
        self._invalid_in_block[victim] = 0

        for lpage, bits in relocated:
            target = self._allocate_page()
            block, wl = self._physical_address(target)
            self.array.program_page(block, wl, bits)
            self.stats.physical_writes += 1
            self.stats.gc_relocations += 1
            self._map[lpage] = target
            self._reverse[target] = lpage

    # ----- host interface ---------------------------------------------------

    def write(self, logical_page: int, bits: np.ndarray) -> None:
        """Write a logical page (out-of-place; old copy invalidated)."""
        if not 0 <= logical_page < self.logical_capacity_pages:
            raise MemoryOperationError(
                f"logical page {logical_page} beyond capacity "
                f"{self.logical_capacity_pages}"
            )
        target = self._allocate_page()
        # Look up the old copy only *after* allocating: allocation may
        # run garbage collection, which can relocate this very logical
        # page; capturing the old address earlier would leave the
        # relocated copy alive in the reverse map (a stale entry a later
        # GC would resurrect over the new data).
        old = self._map.get(logical_page)
        block, wl = self._physical_address(target)
        self.array.program_page(block, wl, bits)
        self._map[logical_page] = target
        self._reverse[target] = logical_page
        self.stats.host_writes += 1
        self.stats.physical_writes += 1
        if old is not None:
            self._reverse.pop(old, None)
            old_block = old // self._pages_per_block
            self._invalid_in_block[old_block] += 1

    def read(self, logical_page: int) -> np.ndarray:
        """Read a logical page.

        Raises
        ------
        MemoryOperationError
            If the page was never written.
        """
        target = self._map.get(logical_page)
        if target is None:
            raise MemoryOperationError(
                f"logical page {logical_page} has never been written"
            )
        block, wl = self._physical_address(target)
        return self.array.read_page(block, wl)

    def wear_spread(self) -> float:
        """Max minus min block erase count (wear-levelling quality)."""
        counts = self.array.block_erase_counts()
        return float(max(counts) - min(counts))
