"""Sense amplifier: converting cell current into bits.

Reads a cell by comparing its drain current at the read bias against a
reference current (equivalently, its threshold against a reference
voltage). Comparator offset and current noise are modelled as a Gaussian
equivalent threshold noise, which is how sensing margin budgets are
specified in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class SenseAmplifier:
    """Threshold comparator with Gaussian input-referred noise.

    Attributes
    ----------
    reference_v:
        Read reference threshold [V].
    noise_sigma_v:
        Input-referred comparator noise [V].
    """

    reference_v: float
    noise_sigma_v: float = 0.02

    def __post_init__(self) -> None:
        if self.noise_sigma_v < 0.0:
            raise ConfigurationError("noise sigma cannot be negative")

    def sense_page_batch(
        self,
        vt_v: np.ndarray,
        rng: "np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Sense a whole threshold array into bits in one comparison.

        Draws one comparator-noise value per cell (a single
        vectorized draw in C order -- the stream the scalar reference
        replays cell by cell) and compares every threshold against its
        noisy reference at once. Returns ``uint8`` bits of ``vt_v``'s
        shape, following the paper's state convention: erased = logic
        '1', programmed = logic '0'.
        """
        vt = np.asarray(vt_v, dtype=float)
        reference = self.reference_v
        if rng is not None and self.noise_sigma_v > 0.0:
            reference = reference + rng.normal(
                0.0, self.noise_sigma_v, size=vt.shape
            )
        return (vt <= reference).astype(np.uint8)

    def sense_page_scalar_reference(
        self,
        vt_v: np.ndarray,
        rng: "np.random.Generator | None" = None,
    ) -> np.ndarray:
        """The per-cell sense loop (bit-exact parity twin).

        Same noise stream and comparison as :meth:`sense_page_batch`,
        executed one cell at a time in C order.
        """
        vt = np.asarray(vt_v, dtype=float)
        flat = vt.reshape(-1)
        bits = np.empty(flat.shape, dtype=np.uint8)
        draw_noise = rng is not None and self.noise_sigma_v > 0.0
        for i, value in enumerate(flat):
            noise = (
                float(rng.normal(0.0, self.noise_sigma_v))
                if draw_noise
                else 0.0
            )
            bits[i] = 1 if value <= self.reference_v + noise else 0
        return bits.reshape(vt.shape)
