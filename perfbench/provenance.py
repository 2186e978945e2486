"""Where a result came from: interpreter, libraries, compiler, host, code.

Numbers measured under different library builds, compilers or hosts
are not comparable, so every result file carries this record and the
compare command reports the fields on which two result sets differ.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

#: Fields the compare command checks for differences between sides.
COMPARED = ("python", "numpy", "scipy", "networkx", "blas", "cc",
            "native_build", "nproc", "cpu_model", "git_commit",
            "source_sha256")


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        return "unknown"
    return " ".join(str(blas.get(key, "")) for key in
                    ("name", "version", "openblas configuration")).strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                   capture_output=True, text=True,
                                   timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _source_sha256(root: Path) -> str:
    """Content hash of the library source (a checkout may not be a
    git repository, so the commit alone cannot identify the code)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    """The provenance record of a run about to start."""
    import networkx
    import numpy
    import scipy
    from repro.linalg import native

    fingerprint = native.build_fingerprint()
    library = native._library_dir(fingerprint) / native._LIBRARY_NAME
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": _blas(),
        "cc": fingerprint["cc_version"],
        "native_build": hashlib.sha256(repr(sorted(
            fingerprint.items())).encode()).hexdigest()[:16],
        "native_build_cached": library.exists(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "loadavg_before": list(os.getloadavg()),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
    }
