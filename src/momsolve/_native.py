"""Build and load ``_heavy_ball.c``, the compiled heavy-ball step loop.

``load()`` compiles the source once per (source, compiler, flags, CPU) with
``sysconfig``'s C compiler into a per-user cache directory (a private
directory in the temp directory when that fails), renames the library into
place atomically, deletes the libraries of earlier builds there, and loads
it with ``ctypes``. A directory is used only if
it is a real directory that this user owns and nobody else can write, so no
other user can plant the library that is loaded. Any failure leaves the
NumPy loop in charge and says why; nothing selects the engine but whether
this works.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shlex
import stat
import sysconfig
import tempfile
import zlib
from pathlib import Path

SOURCE = Path(__file__).with_name("_heavy_ball.c")
# -march=native lets the compiler vectorize; -ffp-contract=off keeps it from
# fusing a multiply and an add, and there is no -ffast-math, so the bits do
# not depend on the CPU
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


class Run(ctypes.Structure):
    """The kernel's ``Run``, field for field."""

    _fields_ = [(name, kind) for names, kind in (
        ("P offsets B R", _P), ("W", _P * 2), ("t rse alpha beta resnorm iterates wall moved "
                                             "log_key log_t log_c log_e log_w log_fill "
                                             "S J At res Ad u", _P),
        ("n1 width q m mode rule cap max_iters timing window keep", _I),
        ("threshold_sq relax fixed_alpha fixed_beta degeneracy diverged tol err0_sq", _D),
        ("k cur started tries t0 draws fallbacks records used", _I),
        ("last_rse", _D),
    ) for name in names.split()]


class Csr(ctypes.Structure):
    """The kernel's ``Csr`` over a scipy CSR (or CSC) matrix's arrays, as
    int64 indices and float64 values that it keeps alive."""

    _fields_ = [("ptr", _P), ("idx", _P), ("val", _P)]

    def __init__(self, M):
        import numpy as np

        self.arrays = (np.ascontiguousarray(M.indptr, dtype=np.int64),
                       np.ascontiguousarray(M.indices, dtype=np.int64),
                       np.ascontiguousarray(M.data, dtype=np.float64))
        super().__init__(*(a.ctypes.data for a in self.arrays))


def _cpu() -> str:
    """What -march=native compiles for: the CPU model and its flags."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            lines = [line for line in fh if line.startswith(("model name", "flags"))]
        return "".join(lines[:2])
    except OSError:
        return platform.processor() or platform.machine()


def _cache_dirs():
    """The user's cache directory, then one of this user's in the temp
    directory; the second only where users have ids."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    dirs = [os.path.join(base, "momsolve")]
    if hasattr(os, "getuid"):
        dirs.append(os.path.join(tempfile.gettempdir(), f"momsolve-{os.getuid()}"))
    return dirs


def _private_dir(path: str) -> None:
    """Make ``path`` a directory, or raise OSError unless it is a directory
    (not a link to one) of this user's that no group or other user can
    write: anything found in it was put there by this user."""
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.lstat(path)
    if (not stat.S_ISDIR(st.st_mode) or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
            or (hasattr(os, "getuid") and st.st_uid != os.getuid())):
        raise OSError(f"{path} is not a directory that only this user can write")


def _compile(cc: str, out_dir: str, name: str) -> str:
    _private_dir(out_dir)
    path = os.path.join(out_dir, name)
    if os.path.exists(path):
        return path
    import subprocess

    fd, tmp = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=out_dir)
    os.close(fd)
    try:
        done = subprocess.run([*shlex.split(cc), *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if done.returncode:
            raise OSError(f"{cc} exited {done.returncode}: {done.stderr.strip()[-300:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(out_dir, name)
    return path


def _prune(out_dir: str, keep: str) -> None:
    """Delete the libraries of other sources, compilers, flags or CPUs from
    ``out_dir``, a directory that passed ``_private_dir``; a loaded library
    stays mapped in the processes that use it."""
    for old in Path(out_dir).glob("heavy_ball-*.so"):
        if old.name != keep:
            try:
                old.unlink()
            except OSError:
                pass


def _library_name(cc: str) -> str:
    """The cached library's file name, keyed by the source, ``cc``, the flags
    and the CPU."""
    text = b"\0".join([SOURCE.read_bytes(), cc.encode(), " ".join(FLAGS).encode(), _cpu().encode()])
    # zlib comes loaded with numpy; hashlib would load OpenSSL, 3.6 MB of RSS
    return "heavy_ball-%08x.so" % zlib.crc32(text)


def build() -> str:
    """The path of the compiled library, compiled now unless cached."""
    cc = sysconfig.get_config_var("CC") or "cc"
    name = _library_name(cc)
    failures = []
    for out_dir in _cache_dirs():
        try:
            return _compile(cc, out_dir, name)
        except OSError as exc:
            failures.append(f"{out_dir}: {exc}")
    raise OSError("; ".join(failures))


def load():
    """(the loaded kernel, "") or (None, why it could not be built or loaded)."""
    try:
        try:
            lib = ctypes.CDLL(build())
        except OSError:  # a concurrent build of another source may have pruned it
            lib = ctypes.CDLL(build())
    except OSError as exc:
        return None, f"kernel build failed: {exc}"
    lib.momsolve_run_size.restype = ctypes.c_int64
    lib.momsolve_run_size.argtypes = []
    if lib.momsolve_run_size() != ctypes.sizeof(Run):
        return None, "kernel Run layout differs from momsolve._native.Run"
    lib.momsolve_heavy_ball.restype = ctypes.c_int64
    lib.momsolve_heavy_ball.argtypes = [ctypes.POINTER(Run), ctypes.c_void_p, ctypes.c_int64]
    return lib, ""
