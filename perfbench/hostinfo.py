"""Host fingerprint printed with every benchmark result.

CPU count and affinity, interpreter and numeric-library versions, the
BLAS thread count, the filesystem the store and journal live on (their
fsync cost depends on it) and the code under test.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import subprocess
from pathlib import Path
from typing import Any


def _openblas() -> "dict[str, Any]":
    """OpenBLAS version and live thread count, read from the loaded library."""
    import numpy

    info: "dict[str, Any]" = {
        "version": None,
        "threads": None,
        "env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if k in os.environ
        },
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    maps = Path("/proc/self/maps")
    libs = re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text()) if maps.exists() else []
    for lib_path in sorted(set(libs)):
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def filesystem(path: Path) -> "dict[str, str]":
    """Mount point and type of the filesystem holding ``path``."""
    target = str(path.resolve())
    best = ("", "unknown", "unknown")
    mounts = Path("/proc/mounts")
    for line in mounts.read_text().splitlines() if mounts.exists() else []:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best[0]):
            best = (mount, parts[2], parts[0])
    return {"mount": best[0], "type": best[1], "device": best[2]}


def code_identity(root: Path) -> "dict[str, Any]":
    """The git commit when there is one, and a digest of ``src/`` always."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def host(root: Path, work_dir: Path) -> "dict[str, Any]":
    """Everything but per-process affinities (the workload adds those)."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "store_filesystem": filesystem(work_dir),
        "code": code_identity(root),
    }
