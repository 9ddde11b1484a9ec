"""System benchmark: FTL random-write throughput and backend speedup.

Workload: a page-mapped FTL churned with random host overwrites until
garbage collection cycles blocks. ``test_ftl_backend_speedup`` runs the
identical workload over the matrix-backed array in both backend modes
(vectorized page kernels vs the per-cell ``scalar_reference`` loops on
the same RNG stream), pins write amplification, wear and every live
page bit-exactly, and gates the batch path at >= 5x on wide pages.
"""

import numpy as np

from conftest import best_of, record_speedup

from repro.memory import (
    ArrayConfig,
    PageMappedFtl,
    WorkloadSpec,
    build_vector_array,
    build_workload,
)

#: Wide-page GC workload of the gated comparison.
FTL_CONFIG = ArrayConfig(
    n_blocks=4, wordlines_per_block=4, bitlines=2048
)
N_REQUESTS = 24

SPEEDUP_GATE = 5.0


def test_ftl_random_write_throughput(benchmark, sim_session, cell_kernel):
    def setup():
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(n_blocks=4, wordlines_per_block=8, bitlines=64),
            seed=23,
        )
        ftl = PageMappedFtl(array, overprovision_blocks=1)
        requests = list(
            sim_session.workload(
                WorkloadSpec(
                    kind="uniform",
                    n_requests=48,
                    capacity_pages=ftl.logical_capacity_pages,
                    page_bits=64,
                )
            )
        )
        return (ftl, requests), {}

    def churn(ftl, requests):
        for request in requests:
            ftl.write(request.logical_page, request.bits)
        return ftl

    ftl = benchmark.pedantic(churn, setup=setup, rounds=3, iterations=1)
    assert ftl.stats.write_amplification >= 1.0


def _ftl_churn(cell_kernel, scalar_reference):
    """The gated workload: GC-heavy overwrites in one backend mode."""
    ftl = PageMappedFtl(
        build_vector_array(
            cell_kernel,
            FTL_CONFIG,
            seed=23,
            scalar_reference=scalar_reference,
        ),
        overprovision_blocks=1,
    )
    requests = build_workload(
        WorkloadSpec(
            kind="uniform",
            n_requests=N_REQUESTS,
            capacity_pages=ftl.logical_capacity_pages,
            page_bits=FTL_CONFIG.bitlines,
            seed=19,
        )
    )
    written = {}
    for request in requests:
        ftl.write(request.logical_page, request.bits)
        written[request.logical_page] = request.bits
    return ftl, written


def test_ftl_backend_speedup(cell_kernel):
    """FTL over the matrix backend beats its per-cell twin >= 5x."""
    ftl_batch, written = _ftl_churn(cell_kernel, False)
    ftl_scalar, _ = _ftl_churn(cell_kernel, True)

    assert ftl_batch.stats.gc_invocations > 0
    assert (
        ftl_batch.stats.write_amplification
        == ftl_scalar.stats.write_amplification
    )
    assert ftl_batch.wear_spread() == ftl_scalar.wear_spread()
    np.testing.assert_array_equal(
        ftl_batch.array.state.vt_v, ftl_scalar.array.state.vt_v
    )
    for lpage, bits in sorted(written.items()):
        got = ftl_batch.read(lpage)
        np.testing.assert_array_equal(got, bits)
        np.testing.assert_array_equal(got, ftl_scalar.read(lpage))

    t_scalar = best_of(lambda: _ftl_churn(cell_kernel, True), repeats=2)
    t_batch = best_of(lambda: _ftl_churn(cell_kernel, False))
    speedup = t_scalar / t_batch
    record_speedup(
        "ftl_backend_churn",
        speedup,
        t_scalar,
        t_batch,
        gate=SPEEDUP_GATE,
        detail=(
            f"{N_REQUESTS} GC-heavy host writes over "
            f"{FTL_CONFIG.n_blocks} blocks x "
            f"{FTL_CONFIG.wordlines_per_block} pages x "
            f"{FTL_CONFIG.bitlines} bit lines, batch vs scalar backend"
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"FTL over the batch backend only {speedup:.1f}x faster than "
        f"the scalar reference ({t_scalar * 1e3:.0f} ms vs "
        f"{t_batch * 1e3:.1f} ms)"
    )
