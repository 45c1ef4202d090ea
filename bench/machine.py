"""Machine fingerprint and the measured bandwidth ceiling.

The fingerprint (cores, CPU model, cache sizes, NumPy/BLAS build, thread
environment) is cheap and stamped into every result; ``--compare`` refuses
to gate across different fingerprints.  The bandwidth numbers are measured
— copy and triad over arrays at least four times the detected last-level
cache, capped at ``Sizes.bandwidth_cap_bytes`` — and are the ceiling every
``*_gbps_computed`` ladder number is read against.
"""

from __future__ import annotations

import glob
import os
import platform
import time
from typing import Any, Dict

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "REPRO_BACKEND")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.lower().startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def cache_sizes() -> Dict[str, int]:
    """Bytes per cache level of cpu0 (``L1d``, ``L2``, ``L3``…) from sysfs."""
    sizes: Dict[str, int] = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = _read(os.path.join(index, "type"))
        if kind == "Instruction":
            continue
        level = _read(os.path.join(index, "level"))
        size = _read(os.path.join(index, "size"))
        if not level or not size.endswith("K"):
            continue
        sizes[f"L{level}" + ("d" if kind == "Data" else "")] = int(size[:-1]) * 1024
    return sizes


def fingerprint() -> Dict[str, Any]:
    """The static description of this machine and its numeric stack."""
    import numpy as np

    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = build.get("blas", {}) if isinstance(build, dict) else {}
    return {
        "cores": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {name: os.environ[name] for name in THREAD_ENV_VARS
                       if name in os.environ},
    }


def bandwidth(cap_bytes: int, repeats: int = 3) -> Dict[str, Any]:
    """Best-of-``repeats`` copy and triad GB/s over LLC-exceeding arrays."""
    import numpy as np

    caches = cache_sizes()
    llc = max(caches.values(), default=32 << 20)
    array_bytes = min(4 * llc, cap_bytes)
    count = array_bytes // 8
    # Two arrays, not three: on a virtual machine the first touch of each
    # GiB can cost seconds, and a two-pass triad needs no third operand.
    a = np.full(count, 1.0)
    c = np.zeros(count)
    copy_s = triad_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        np.copyto(c, a)
        copy_s = min(copy_s, time.perf_counter() - started)
        started = time.perf_counter()
        np.multiply(c, 3.0, out=c)
        np.add(a, c, out=c)
        triad_s = min(triad_s, time.perf_counter() - started)
    nbytes = count * 8
    return {
        # copy moves 2 arrays; the two-pass triad c = a + 3c reads and writes
        # c, then reads a and c and writes c again: 5 array transfers.
        "copy_gbps": 2 * nbytes / copy_s / 1e9,
        "triad_gbps": 5 * nbytes / triad_s / 1e9,
        "array_bytes": nbytes,
        "llc_bytes": llc,
    }
