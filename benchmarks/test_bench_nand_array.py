"""System benchmark: NAND array program/read throughput (DESIGN.md sys-nand).

Workload: a 2-block, 8-page, 64-bit-line array of device-calibrated
cells; one benchmark programs pages with ISPP + verify, the other reads
them back through the sense amplifier.

``test_array_backend_speedup`` gates the array-state backend: the same
program/read/erase sequence runs once through the vectorized page
kernels of :class:`~repro.memory.array.VectorMemoryArray` and once
through their per-cell ``scalar_reference`` loops on the identical RNG
stream, pins the two end states bit-exactly, and asserts the batch
path is >= 5x faster on a wide (2048-bit-line) page.
"""

import numpy as np

from conftest import best_of_interleaved, record_speedup

from repro.memory import ArrayConfig, build_vector_array

#: Wide-page workload of the gated comparison: page width is what the
#: per-cell loops pay for and the matrix kernels amortise.
WIDE_CONFIG = ArrayConfig(
    n_blocks=1, wordlines_per_block=4, bitlines=2048
)

SPEEDUP_GATE = 5.0


def _fresh_array(cell_kernel, seed=21):
    return build_vector_array(
        cell_kernel,
        ArrayConfig(n_blocks=2, wordlines_per_block=8, bitlines=64),
        seed=seed,
    )


def test_page_program_throughput(benchmark, cell_kernel):
    rng = np.random.default_rng(5)

    def setup():
        array = _fresh_array(cell_kernel)
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        return (array, bits), {}

    def program(array, bits):
        for wl in range(8):
            array.program_page(0, wl, bits)
        return array

    array = benchmark.pedantic(program, setup=setup, rounds=3, iterations=1)
    assert len(array.programmed_pages[0]) == 8


def test_page_read_throughput(benchmark, cell_kernel):
    rng = np.random.default_rng(6)
    array = _fresh_array(cell_kernel)
    patterns = {}
    for wl in range(8):
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        array.program_page(0, wl, bits)
        patterns[wl] = bits

    def read_block():
        return [array.read_page(0, wl) for wl in range(8)]

    pages = benchmark(read_block)
    for wl, got in enumerate(pages):
        assert (got == patterns[wl]).all()


def _array_sequence(cell_kernel, scalar_reference):
    """Program/read/erase/re-program one wide block in one mode."""
    array = build_vector_array(
        cell_kernel,
        WIDE_CONFIG,
        seed=21,
        scalar_reference=scalar_reference,
    )
    patterns = np.random.default_rng(5).integers(
        0, 2, size=(WIDE_CONFIG.wordlines_per_block, WIDE_CONFIG.bitlines)
    )
    reads = []
    for wl in range(WIDE_CONFIG.wordlines_per_block):
        array.program_page(0, wl, patterns[wl])
        reads.append(array.read_page(0, wl))
    array.erase_block(0)
    array.program_page(0, 0, patterns[0])
    return array, np.array(reads), patterns


def test_array_backend_speedup(cell_kernel):
    """The matrix backend beats its per-cell twin >= 5x, bit-exactly."""
    array_batch, reads_batch, patterns = _array_sequence(cell_kernel, False)
    array_scalar, reads_scalar, _ = _array_sequence(cell_kernel, True)

    assert (reads_batch == patterns).all()
    np.testing.assert_array_equal(reads_batch, reads_scalar)
    np.testing.assert_array_equal(
        array_batch.state.vt_v, array_scalar.state.vt_v
    )
    np.testing.assert_array_equal(
        array_batch.state.programmed, array_scalar.state.programmed
    )
    assert array_batch.block_erase_counts() == (
        array_scalar.block_erase_counts()
    )

    t_scalar, t_batch = best_of_interleaved(
        lambda: _array_sequence(cell_kernel, True),
        lambda: _array_sequence(cell_kernel, False),
    )
    speedup = t_scalar / t_batch
    record_speedup(
        "nand_array_backend",
        speedup,
        t_scalar,
        t_batch,
        gate=SPEEDUP_GATE,
        detail=(
            f"program+read+erase of {WIDE_CONFIG.wordlines_per_block} "
            f"pages x {WIDE_CONFIG.bitlines} bit lines, vectorized page "
            "kernels vs per-cell reference loops"
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"array backend only {speedup:.1f}x faster than its scalar "
        f"reference ({t_scalar * 1e3:.0f} ms vs {t_batch * 1e3:.1f} ms)"
    )
