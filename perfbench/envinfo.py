"""Environment record attached to every result."""

import ctypes
import os
import platform
from pathlib import Path

# the thread-count getters OpenBLAS builds export, by symbol suffix
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def openblas_threads():
    """Thread count in effect for each OpenBLAS copy loaded into this
    process, keyed by the package that ships it (numpy and scipy each bring
    their own).  Read through ctypes: threadpoolctl is not a dependency."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1]})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        owner = Path(path).parent.name.removesuffix(".libs")
        for sym in _GETTERS:
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                out[owner] = getter()
                break
    return out


def git_commit(root):
    """HEAD of a git checkout at `root`, read from its files; None when the
    tree is not a git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def record(root):
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "openblas_threads": openblas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
