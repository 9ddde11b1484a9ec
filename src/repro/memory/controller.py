"""Memory controller: ECC-protected logical page store.

The top of the memory stack: host pages are ECC-encoded, spread over the
array through the FTL, and verified/corrected on read. The controller
reports raw and post-ECC error statistics, closing the loop from the
paper's single-device tunneling physics to system-level reliability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, MemoryOperationError
from .ecc import (
    HammingCode,
    interleave_decode_batch,
    interleave_encode_batch,
)
from .ftl import PageMappedFtl


@dataclass
class ControllerStats:
    """Error/traffic counters."""

    pages_written: int = 0
    pages_read: int = 0
    bits_corrected: int = 0
    uncorrectable_pages: int = 0


@dataclass
class MemoryController:
    """Host-facing controller with ECC and page mapping.

    Attributes
    ----------
    ftl:
        The translation layer (owns the array).
    code:
        ECC code applied per page.
    host_page_bits:
        Payload bits per host page; must fit the physical page after
        encoding.
    """

    ftl: PageMappedFtl
    code: HammingCode = field(default_factory=lambda: HammingCode(32))
    host_page_bits: int = 32

    def __post_init__(self) -> None:
        physical_bits = self.ftl.array.config.bitlines
        import math

        n_blocks = math.ceil(self.host_page_bits / self.code.data_bits)
        encoded = n_blocks * self.code.codeword_bits
        if encoded > physical_bits:
            raise ConfigurationError(
                f"encoded page ({encoded} bits) exceeds the physical page "
                f"({physical_bits} bits); shrink host_page_bits or the code"
            )
        self.stats = ControllerStats()

    def write(self, logical_page: int, payload: np.ndarray) -> None:
        """ECC-encode and store one host page."""
        payload = np.asarray(payload).astype(np.uint8)
        if payload.size != self.host_page_bits:
            raise MemoryOperationError(
                f"payload must be {self.host_page_bits} bits, "
                f"got {payload.size}"
            )
        encoded = interleave_encode_batch(self.code, payload)
        physical_bits = self.ftl.array.config.bitlines
        page = np.ones(physical_bits, dtype=np.uint8)  # 1 = erased filler
        page[: encoded.size] = encoded
        self.ftl.write(logical_page, page)
        self.stats.pages_written += 1

    def read(self, logical_page: int) -> np.ndarray:
        """Read and correct one host page.

        Raises
        ------
        MemoryOperationError
            On uncorrectable ECC failure (recorded in the stats first).
        """
        raw = self.ftl.read(logical_page)
        import math

        n_blocks = math.ceil(self.host_page_bits / self.code.data_bits)
        encoded_bits = n_blocks * self.code.codeword_bits
        try:
            payload, corrected = interleave_decode_batch(
                self.code, raw[:encoded_bits], self.host_page_bits
            )
        except MemoryOperationError:
            self.stats.uncorrectable_pages += 1
            raise
        self.stats.pages_read += 1
        self.stats.bits_corrected += corrected
        return payload
