"""Native C kernel tier for the packed GF(2) core.

The packed uint64 kernels in :mod:`repro.linalg.bitops` are numpy-bound:
every BP iteration pays array-temporary and dispatch overhead across a
dozen vectorized passes.  This module compiles a small C library
(``kernels.c`` — the packed GF(2) matmul behind BP's syndrome
verification, packed Gauss-Jordan row reduction, and a fused min-sum
check-node update over edge segments) **on first use** with the
host C compiler and binds it via :mod:`ctypes` — no pip installs, no
Cython, no build system.

Build model
-----------
The source ships as ``kernels.c`` next to this file.  On the first
request the library is compiled with ``cc -O3 -fPIC -shared`` into a
per-version cache directory (``~/.cache/repro-native/<abi>-<hash>/`` by
default, override with ``REPRO_NATIVE_CACHE``) whose name hashes the
*build fingerprint*: source bytes, compiler path and version banner,
flags, platform and ABI revision.  Any change to any of those lands in
a fresh directory, so stale binaries are never loaded; the fingerprint
is also written alongside the library as ``fingerprint.json`` (and the
benchmarks record it), because — as the A64FX compiler studies keep
demonstrating — flag/compiler choices must be *traceable*, not assumed.
Compilation is atomic (build to a temp name, ``os.replace``), so
concurrent worker processes race benignly.

Availability and fallback
-------------------------
:func:`native_available` probes the toolchain once per process.  When
``cc`` is absent, the compile fails, or the platform is unsupported
(big-endian hosts), the probe logs **one** note and every consumer
falls back to the ``"packed"`` numpy kernels — silently, because the
two tiers are bit-identical by construction (cross-checked by the
hypothesis suite in ``tests/test_native_backend.py`` exactly as
``"packed"`` is cross-checked against ``"bool"``).

``REPRO_NATIVE`` overrides the probe:

* ``REPRO_NATIVE=0`` — never compile or load; everything stays numpy.
* ``REPRO_NATIVE=1`` — require the native tier; a probe failure raises
  instead of falling back (for hosts where silence would hide a
  misconfigured toolchain).
* unset/other — auto: use the native tier when it builds, fall back
  when it does not.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "NativeKernels",
    "get_kernels",
    "native_available",
    "native_unavailable_reason",
    "build_fingerprint",
    "simulation_backend",
    "reset_native_state",
]

logger = logging.getLogger(__name__)

#: Bumped whenever the C ABI (function signatures/semantics) changes;
#: part of the cache-directory fingerprint so old binaries never load.
ABI_VERSION = 2

#: Compile flags, recorded verbatim in the build fingerprint.
CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c11")

_SOURCE_PATH = Path(__file__).with_name("kernels.c")
_LIBRARY_NAME = "libreprokernels.so"

# Probe memoisation: (kernels, reason).  ``_PROBED`` guards both so a
# failed probe is not retried (and re-logged) on every decoder build.
_PROBED = False
_KERNELS: "NativeKernels | None" = None
_REASON: str | None = None


def simulation_backend(backend: str) -> str:
    """The sampling/DEM backend a decoder backend implies.

    The native tier accelerates *decoding* kernels only; simulation and
    DEM extraction for ``backend="native"`` run on the ``"packed"``
    numpy kernels, so samples are bit-identical across the two fast
    backends by construction.
    """
    return "bool" if backend == "bool" else "packed"


def reset_native_state() -> None:
    """Forget the memoised probe (tests re-probe under new env/toolchain)."""
    global _PROBED, _KERNELS, _REASON
    _PROBED = False
    _KERNELS = None
    _REASON = None


# ----------------------------------------------------------------------
def _compiler() -> str | None:
    """The C compiler to use: ``$CC`` if set, else the first of cc/gcc/clang
    on PATH."""
    cc = os.environ.get("CC")
    if cc:
        return cc if os.path.sep in cc else shutil.which(cc)
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _compiler_banner(cc: str) -> str:
    """First line of ``cc --version`` (part of the build fingerprint)."""
    try:
        result = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        return (result.stdout or result.stderr).splitlines()[0].strip()
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def build_fingerprint(cc: str | None = None) -> dict:
    """The dict whose hash names the cache directory.

    Everything that could change the binary's behaviour participates:
    source bytes, compiler identity, flags, platform and ABI revision.
    """
    cc = cc or _compiler() or "cc-not-found"
    return {
        "abi_version": ABI_VERSION,
        "source_sha256": hashlib.sha256(
            _SOURCE_PATH.read_bytes()
        ).hexdigest(),
        "cc": cc,
        "cc_version": _compiler_banner(cc) if os.path.exists(cc) else "absent",
        "cflags": list(CFLAGS),
        "machine": platform.machine(),
        "system": sys.platform,
    }


def _cache_root() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path(os.path.expanduser("~")) / ".cache" / "repro-native"


def _library_dir(fingerprint: dict) -> Path:
    digest = hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode()
    ).hexdigest()[:16]
    return _cache_root() / f"v{ABI_VERSION}-{digest}"


# ----------------------------------------------------------------------
def _build_library() -> "NativeKernels":
    """Compile (if needed) and bind the kernel library.

    Raises ``RuntimeError`` with a human-readable reason on any failure;
    :func:`get_kernels` turns that into the silent fallback.
    """
    if sys.byteorder != "little":
        raise RuntimeError(
            "native tier requires a little-endian host (packed-word "
            "layout); falling back to numpy kernels"
        )
    if not _SOURCE_PATH.exists():
        raise RuntimeError(f"kernel source missing at {_SOURCE_PATH}")
    cc = _compiler()
    if cc is None or not os.path.exists(cc):
        raise RuntimeError("no C compiler on PATH (tried $CC, cc, gcc, "
                           "clang)")

    fingerprint = build_fingerprint(cc)
    lib_dir = _library_dir(fingerprint)
    lib_path = lib_dir / _LIBRARY_NAME
    if not lib_path.exists():
        lib_dir.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            suffix=".so", prefix="build-", dir=lib_dir
        )
        os.close(fd)
        command = [cc, *CFLAGS, "-o", temp_name, str(_SOURCE_PATH)]
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, timeout=120
            )
            if result.returncode != 0:
                raise RuntimeError(
                    f"compile failed ({' '.join(command)}): "
                    f"{result.stderr.strip()[:500]}"
                )
            # Atomic publish: concurrent builders race benignly — the
            # last os.replace wins and every replaced file was built
            # from the identical fingerprinted inputs.
            os.replace(temp_name, lib_path)
            (lib_dir / "fingerprint.json").write_text(
                json.dumps(fingerprint, indent=2, sort_keys=True) + "\n"
            )
        except (OSError, subprocess.SubprocessError) as error:
            raise RuntimeError(f"compile failed: {error}") from error
        finally:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
    try:
        library = ctypes.CDLL(str(lib_path))
    except OSError as error:
        raise RuntimeError(
            f"compiled library at {lib_path} failed to load: {error}"
        ) from error
    return NativeKernels(library, fingerprint, lib_path)


def get_kernels() -> "NativeKernels | None":
    """The process-wide kernel binding, or ``None`` when unavailable.

    The first call probes (honouring ``REPRO_NATIVE``) and memoises;
    failures log a single note and are not retried.  With
    ``REPRO_NATIVE=1`` a failure raises instead of returning ``None``.
    """
    global _PROBED, _KERNELS, _REASON
    if _PROBED:
        if _KERNELS is None and os.environ.get("REPRO_NATIVE") == "1":
            raise RuntimeError(
                f"REPRO_NATIVE=1 but the native tier is unavailable: "
                f"{_REASON}"
            )
        return _KERNELS
    _PROBED = True
    mode = os.environ.get("REPRO_NATIVE", "")
    if mode == "0":
        _REASON = "disabled by REPRO_NATIVE=0"
        return None
    try:
        _KERNELS = _build_library()
    except RuntimeError as error:
        _REASON = str(error)
        if mode == "1":
            raise RuntimeError(
                f"REPRO_NATIVE=1 but the native tier is unavailable: "
                f"{_REASON}"
            ) from error
        logger.info(
            "native kernel tier unavailable (%s); using the packed "
            "numpy kernels — results are bit-identical",
            _REASON,
        )
    return _KERNELS


def native_available() -> bool:
    """Whether the native tier can be (or has been) loaded."""
    try:
        return get_kernels() is not None
    except RuntimeError:
        # REPRO_NATIVE=1 with a broken toolchain: callers probing
        # availability get a clean False; building a decoder raises.
        return False


def native_unavailable_reason() -> str | None:
    """Why the probe failed (``None`` while unprobed or available)."""
    return _REASON


# ----------------------------------------------------------------------
def _as_words(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.dtype("<u8"))


def _pointer(array: np.ndarray, ctype) -> "ctypes.pointer":
    return array.ctypes.data_as(ctypes.POINTER(ctype))


class NativeKernels:
    """ctypes binding of one compiled kernel library.

    Thin shims only: argument marshalling (contiguity, dtype) plus the
    output allocation; all semantics live in ``kernels.c``.  Instances
    are process-wide singletons handed out by :func:`get_kernels`.
    """

    def __init__(self, library: ctypes.CDLL, fingerprint: dict,
                 path: Path) -> None:
        self._lib = library
        self.fingerprint = fingerprint
        self.path = path
        i64 = ctypes.c_int64
        f64 = ctypes.c_double
        u8p = ctypes.POINTER(ctypes.c_uint8)
        u64p = ctypes.POINTER(ctypes.c_uint64)
        i64p = ctypes.POINTER(ctypes.c_int64)
        f64p = ctypes.POINTER(ctypes.c_double)
        library.repro_packed_matmul_words.argtypes = [u64p, u64p, i64, i64,
                                                      i64, u64p, i64]
        library.repro_packed_matmul_words.restype = None
        library.repro_gf2_gauss_jordan.argtypes = [u8p, u8p, i64, i64, i64,
                                                   i64p, i64, i64p]
        library.repro_gf2_gauss_jordan.restype = i64
        library.repro_min_sum_check_update.argtypes = [f64p, f64p, i64p,
                                                       i64, i64, i64, f64,
                                                       f64, f64p]
        library.repro_min_sum_check_update.restype = None

    # ------------------------------------------------------------------
    def packed_matmul_words(self, a_packed: np.ndarray,
                            b_packed: np.ndarray) -> np.ndarray:
        """``A @ B.T mod 2`` with the result packed along the B rows."""
        a_packed = _as_words(a_packed)
        b_packed = _as_words(b_packed)
        if a_packed.ndim != 2 or b_packed.ndim != 2:
            raise ValueError("packed_matmul expects 2-D packed operands")
        if a_packed.shape[1] != b_packed.shape[1]:
            raise ValueError("packed operands disagree on inner word count")
        m, n = a_packed.shape[0], b_packed.shape[0]
        out_words = (n + 63) // 64
        out = np.zeros((m, out_words), dtype=np.dtype("<u8"))
        if m and n and a_packed.shape[1]:
            self._lib.repro_packed_matmul_words(
                _pointer(a_packed, ctypes.c_uint64),
                _pointer(b_packed, ctypes.c_uint64),
                ctypes.c_int64(m), ctypes.c_int64(n),
                ctypes.c_int64(a_packed.shape[1]),
                _pointer(out, ctypes.c_uint64),
                ctypes.c_int64(out_words),
            )
        return out

    # ------------------------------------------------------------------
    def gauss_jordan(self, packed: np.ndarray, carry: np.ndarray,
                     column_order: np.ndarray) -> tuple[int, list[int]]:
        """In-place Gauss-Jordan on byte-packed rows, mirrored on carry.

        Same contract as ``decoders.gf2dense._gauss_jordan``: ``packed``
        (rows x row_bytes uint8) and ``carry`` (1-D syndrome or 2-D
        packed transform) are mutated in place; returns
        ``(rank, pivot_cols)``.  Both arrays must be C-contiguous uint8
        (callers pass fresh ``.copy()`` buffers, which are).
        """
        if packed.dtype != np.uint8 or not packed.flags.c_contiguous:
            raise ValueError("packed matrix must be C-contiguous uint8")
        if carry.dtype != np.uint8 or not carry.flags.c_contiguous:
            raise ValueError("carry must be C-contiguous uint8")
        rows, row_bytes = packed.shape
        order = np.ascontiguousarray(column_order, dtype=np.int64)
        if rows == 0 or order.size == 0:
            return 0, []
        carry_2d = carry if carry.ndim == 2 else carry.reshape(rows, -1)
        if carry_2d.shape[0] != rows:
            raise ValueError("carry row count does not match the matrix")
        pivots = np.empty(rows, dtype=np.int64)
        rank = self._lib.repro_gf2_gauss_jordan(
            _pointer(packed, ctypes.c_uint8),
            _pointer(carry_2d, ctypes.c_uint8),
            ctypes.c_int64(rows), ctypes.c_int64(row_bytes),
            ctypes.c_int64(carry_2d.shape[1]),
            _pointer(order, ctypes.c_int64),
            ctypes.c_int64(order.size),
            _pointer(pivots, ctypes.c_int64),
        )
        return int(rank), [int(c) for c in pivots[:rank]]

    # ------------------------------------------------------------------
    def min_sum_check_update(self, var_to_check: np.ndarray,
                             syndrome_signs: np.ndarray,
                             check_starts: np.ndarray,
                             scaling_factor: float,
                             clip_llr: float) -> np.ndarray:
        """Fused scaled min-sum check update; see ``kernels.c``.

        ``var_to_check`` is ``(shots, edges)`` float64, edges grouped by
        check with segment starts ``check_starts`` (one per check);
        ``syndrome_signs`` is ``(shots, checks)`` of exact +-1.0 values.
        Returns the ``(shots, edges)`` check-to-variable messages,
        bit-identical to the numpy reduceat expression.
        """
        var_to_check = np.ascontiguousarray(var_to_check, dtype=np.float64)
        syndrome_signs = np.ascontiguousarray(syndrome_signs,
                                              dtype=np.float64)
        starts = np.ascontiguousarray(check_starts, dtype=np.int64)
        shots, edges = var_to_check.shape
        checks = starts.shape[0]
        if syndrome_signs.shape != (shots, checks):
            raise ValueError("syndrome_signs shape does not match "
                             "(shots, checks)")
        out = np.empty((shots, edges), dtype=np.float64)
        if shots and edges:
            self._lib.repro_min_sum_check_update(
                _pointer(var_to_check, ctypes.c_double),
                _pointer(syndrome_signs, ctypes.c_double),
                _pointer(starts, ctypes.c_int64),
                ctypes.c_int64(shots), ctypes.c_int64(edges),
                ctypes.c_int64(checks),
                ctypes.c_double(scaling_factor),
                ctypes.c_double(clip_llr),
                _pointer(out, ctypes.c_double),
            )
        return out
