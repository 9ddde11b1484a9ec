"""NAND array demo: from the paper's single cell to a managed memory.

Builds a small NAND array whose cells are calibrated from the
MLGNR-CNT device transients, then runs the whole memory stack on it:
ISPP page programming, sensing, a Zipf write workload through the FTL
(garbage collection, wear levelling) and ECC-protected host I/O.

Run with:  python examples/nand_array_demo.py
"""

import numpy as np

from repro.device import FloatingGateTransistor
from repro.memory import (
    ArrayConfig,
    HammingCode,
    MemoryController,
    PageMappedFtl,
    build_vector_array,
    calibrate_kernel,
    zipf_workload,
)
from repro.reporting import format_table


def main() -> None:
    print("Calibrating the array cell from device transients...")
    device = FloatingGateTransistor()
    kernel = calibrate_kernel(device)
    print(
        f"  erased Vt = {kernel.erased_vt_v:+.2f} V, "
        f"programmed Vt = {kernel.programmed_vt_v:+.2f} V, "
        f"window = {kernel.window_v:.2f} V\n"
    )

    config = ArrayConfig(n_blocks=6, wordlines_per_block=8, bitlines=64)
    array = build_vector_array(kernel, config)
    ftl = PageMappedFtl(array, overprovision_blocks=1)

    print(
        f"Array: {config.n_blocks} blocks x "
        f"{config.wordlines_per_block} pages x {config.bitlines} cells "
        f"({ftl.logical_capacity_pages} logical pages)\n"
    )

    # Drive a skewed host workload through the FTL.
    print("Running 150 Zipf-skewed page writes through the FTL...")
    reference = {}
    for request in zipf_workload(
        150, ftl.logical_capacity_pages, config.bitlines
    ):
        ftl.write(request.logical_page, request.bits)
        reference[request.logical_page] = request.bits

    corrupted = sum(
        1
        for page, bits in reference.items()
        if not (ftl.read(page) == bits).all()
    )
    print(
        format_table(
            ("metric", "value"),
            [
                ("host writes", ftl.stats.host_writes),
                ("physical writes", ftl.stats.physical_writes),
                ("write amplification", ftl.stats.write_amplification),
                ("GC invocations", ftl.stats.gc_invocations),
                ("GC relocations", ftl.stats.gc_relocations),
                ("block erases", ftl.stats.block_erases),
                ("wear spread (erases)", ftl.wear_spread()),
                ("corrupted pages", corrupted),
            ],
        )
    )

    # ECC-protected host interface on a fresh array.
    print("\nECC-protected controller (Hamming SECDED over 32-bit pages):")
    fresh = build_vector_array(
        kernel, ArrayConfig(n_blocks=4, wordlines_per_block=8, bitlines=64)
    )
    controller = MemoryController(
        PageMappedFtl(fresh, overprovision_blocks=1),
        HammingCode(32),
        host_page_bits=32,
    )
    rng = np.random.default_rng(42)
    payloads = {i: rng.integers(0, 2, 32).astype(np.uint8) for i in range(12)}
    for page, bits in payloads.items():
        controller.write(page, bits)
    errors = sum(
        1
        for page, bits in payloads.items()
        if not (controller.read(page) == bits).all()
    )
    code = controller.code
    print(f"  pages written/read : {controller.stats.pages_written}/12")
    print(f"  payload errors     : {errors}")
    print(f"  bits corrected     : {controller.stats.bits_corrected}")
    print(
        f"  code overhead      : {code.overhead_fraction() * 100:.1f}% "
        f"({code.data_bits}->{code.codeword_bits} bits)"
    )


if __name__ == "__main__":
    main()
