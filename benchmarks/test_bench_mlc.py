"""System benchmark: multi-level cell page programming and readout.

Workload: a 64-cell page programmed to a four-level Gray-coded pattern
(2 bits/cell) with per-level ISPP verify, then read back through three
references. Extends the paper's single-bit cell to the density the
flash market actually ships.

``test_mlc_staircase_speedup`` gates the vectorized staircase:
:func:`~repro.memory.mlc.program_mlc_page_batch` over a wide
``(pages, cells)`` matrix against its bit-exact per-cell
``scalar_reference`` twin on the same RNG stream, >= 5x.
"""

import numpy as np

from conftest import best_of_interleaved, record_speedup

from repro.memory import (
    MlcLevels,
    level_to_bits,
    program_mlc_page_batch,
    program_mlc_page_scalar_reference,
    read_mlc_page_batch,
)

#: Wide-page staircase workload of the gated comparison.
N_PAGES = 2
CELLS_PER_PAGE = 768

SPEEDUP_GATE = 5.0


def test_mlc_page_program_and_read(benchmark, cell_kernel):
    levels = MlcLevels.from_kernel(cell_kernel)
    targets = (np.arange(64) % 4).reshape(1, -1)
    rng = np.random.default_rng(11)

    def setup():
        vt = cell_kernel.erased_vt_v + rng.normal(0.0, 0.05, size=(1, 64))
        return (vt,), {}

    def program_and_read(vt):
        vt, _ = program_mlc_page_batch(vt, levels, targets, rng=rng)
        return read_mlc_page_batch(vt, levels)

    msb, lsb = benchmark.pedantic(
        program_and_read, setup=setup, rounds=3, iterations=1
    )
    for i, level in enumerate(targets[0]):
        assert (int(msb[0, i]), int(lsb[0, i])) == level_to_bits(level)


def _staircase(cell_kernel, program):
    """Run one MLC staircase pass over the wide matrix in one mode."""
    levels = MlcLevels.from_kernel(cell_kernel)
    targets = np.random.default_rng(13).integers(
        0, 4, size=(N_PAGES, CELLS_PER_PAGE)
    )
    vt0 = np.full(targets.shape, cell_kernel.erased_vt_v)
    final_vt, pulses = program(
        vt0, levels, targets, rng=np.random.default_rng(37)
    )
    return levels, targets, final_vt, pulses


def test_mlc_staircase_speedup(cell_kernel):
    """The batched MLC staircase beats its per-cell twin >= 5x."""
    levels, targets, vt_batch, pulses_batch = _staircase(
        cell_kernel, program_mlc_page_batch
    )
    _, _, vt_scalar, pulses_scalar = _staircase(
        cell_kernel, program_mlc_page_scalar_reference
    )

    np.testing.assert_array_equal(vt_batch, vt_scalar)
    np.testing.assert_array_equal(pulses_batch, pulses_scalar)
    msb, lsb = read_mlc_page_batch(vt_batch, levels)
    for level in range(4):
        want_msb, want_lsb = level_to_bits(level)
        mask = targets == level
        assert (msb[mask] == want_msb).all()
        assert (lsb[mask] == want_lsb).all()

    t_scalar, t_batch = best_of_interleaved(
        lambda: _staircase(cell_kernel, program_mlc_page_scalar_reference),
        lambda: _staircase(cell_kernel, program_mlc_page_batch),
    )
    speedup = t_scalar / t_batch
    record_speedup(
        "mlc_staircase",
        speedup,
        t_scalar,
        t_batch,
        gate=SPEEDUP_GATE,
        detail=(
            f"four-level staircase over {N_PAGES} pages x "
            f"{CELLS_PER_PAGE} cells, vectorized ISPP passes vs the "
            "per-cell reference loop"
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"batched MLC staircase only {speedup:.1f}x faster than the "
        f"scalar reference ({t_scalar * 1e3:.0f} ms vs "
        f"{t_batch * 1e3:.1f} ms)"
    )
