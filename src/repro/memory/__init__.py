"""NAND flash array built on the MLGNR-CNT cell physics.

The system layer the paper motivates: device-calibrated cells organised
into NAND strings, pages and blocks -- one threshold matrix per array
(:class:`VectorMemoryArray`) -- programmed with ISPP, sensed
against references, disturbed by pass-voltage stress, protected by
Hamming ECC and managed by a page-mapped FTL with greedy garbage
collection.
"""

from .array import (
    ArrayConfig,
    ArrayState,
    VectorMemoryArray,
    build_vector_array,
)
from .cell import CellKernel, calibrate_kernel
from .controller import ControllerStats, MemoryController
from .disturb import (
    READ_DISTURB_SCALE,
    DisturbModel,
    apply_program_disturb_batch,
    apply_program_disturb_scalar_reference,
    apply_read_disturb_batch,
    apply_read_disturb_scalar_reference,
)
from .ecc import (
    HammingCode,
    interleave_decode,
    interleave_decode_batch,
    interleave_encode,
    interleave_encode_batch,
)
from .ftl import FtlStats, PageMappedFtl
from .mlc import (
    GRAY_BITS,
    MlcLevels,
    bits_to_level,
    level_to_bits,
    program_mlc_page_batch,
    program_mlc_page_scalar_reference,
    read_mlc_page_batch,
)
from .ispp import (
    IsppBatchOutcome,
    IsppPolicy,
    ispp_step_batch,
    program_page_batch,
    program_page_scalar_reference,
)
from .rtn import (
    RtnTrap,
    derive_trajectory_seed,
    read_instability_probability,
)
from .sense import SenseAmplifier
from .vt_distribution import (
    VtDistribution,
    optimal_read_reference,
    raw_bit_error_rate,
)
from .workload import (
    WorkloadSpec,
    WriteRequest,
    build_workload,
    random_payload,
    sequential_workload,
    uniform_random_workload,
    zipf_workload,
)

__all__ = [
    "CellKernel",
    "calibrate_kernel",
    "VtDistribution",
    "raw_bit_error_rate",
    "optimal_read_reference",
    "IsppPolicy",
    "IsppBatchOutcome",
    "ispp_step_batch",
    "program_page_batch",
    "program_page_scalar_reference",
    "SenseAmplifier",
    "RtnTrap",
    "derive_trajectory_seed",
    "read_instability_probability",
    "DisturbModel",
    "READ_DISTURB_SCALE",
    "apply_program_disturb_batch",
    "apply_program_disturb_scalar_reference",
    "apply_read_disturb_batch",
    "apply_read_disturb_scalar_reference",
    "ArrayConfig",
    "ArrayState",
    "VectorMemoryArray",
    "build_vector_array",
    "HammingCode",
    "interleave_encode",
    "interleave_decode",
    "interleave_encode_batch",
    "interleave_decode_batch",
    "FtlStats",
    "PageMappedFtl",
    "MlcLevels",
    "GRAY_BITS",
    "bits_to_level",
    "level_to_bits",
    "program_mlc_page_batch",
    "program_mlc_page_scalar_reference",
    "read_mlc_page_batch",
    "ControllerStats",
    "MemoryController",
    "WorkloadSpec",
    "WriteRequest",
    "build_workload",
    "random_payload",
    "sequential_workload",
    "uniform_random_workload",
    "zipf_workload",
]
