"""C compiled once into a shared object and cached on disk, with two ways in.

`load(source)` compiles C source with the system C compiler and loads the
result with ctypes; `extension(source)` loads the same cached file as the
extension module MODULE, through importlib's ExtensionFileLoader.  The
object is cached under $XDG_CACHE_HOME/delaycert (by default
~/.cache/delaycert), named by the sha256 of the source, the compiler flags
and the interpreter's EXT_SUFFIX, so every later process of the same
interpreter that loads the same source loads it without compiling.  It is
written under a temporary name and renamed into place, so processes that
compile the same source at once do not see each other's partial files.  A
cached file that fails to load is rebuilt once.

Whether the object is an extension module is decided in one place,
`_headers`: where Python.h is found in sysconfig's include directory, the
compile command gets -I for that directory and -include Python.h, which
puts Python's headers ahead of the source and defines Py_PYTHON_H, and
the source compiles its extension section under #ifdef Py_PYTHON_H.
Elsewhere the object has no such section and `extension` returns None.
The flags are part of the cache key, so the two objects never share a file.

`load` and `extension` return None when no compiler is found, the compile
fails or times out, or the cache cannot be written; the callers then run
their Python code, which computes the same values.  The flags keep the C
arithmetic that of Python: no -ffast-math, no FMA contraction
(-ffp-contract=off), and no builtin folding of pow (-fno-builtin), so that
pow(x, 2.0) is the C library's pow, as in Python, and not x * x.  CFLAGS
from the environment are not read.

The program loads one source: `simulate._SOURCE`, which holds `PY_POW`,
the RK4 kernel, which also iterates discrete maps, the certificate
margins `margins_at`, the CSV writer and the extension section, whose
builtin `margins` calls `margins_at` for the certificate search.  Its
text does not depend on the system: nothing in the program is generated
from one.  It is compiled once per machine, into one cached object that
serves every run and every export through ctypes (long calls, which
release the GIL) and every certificate search through the extension
module (short calls, which would spend most of their time converting
ctypes arguments); nothing is loaded at import.  The CSV writer calls
__builtin_floor, __builtin_fabs and __builtin_memcpy by those names, which
-fno-builtin leaves the compiler free to expand inline.  That is safe
where pow's folding is not: floor and fabs are exact in IEEE arithmetic
and memcpy copies bytes, so an expansion gives the library call's result.

`PY_POW` is the C helper py_pow(x, e, odd, &ovf): CPython 3.11's float_pow
for a float x and a positive whole exponent e (odd tells whether e is odd),
which sets ovf where Python raises OverflowError.  An e of infinity stands
for an integer exponent past the float range, which Python cannot convert,
so it sets ovf for every x.

`held(lock)` and `call(fn, *args)` let threads share one lock for their
Python and overlap in C: a thread that runs a block under `held(lock)`
lets the lock go for the length of each C call made through `call`, and
takes it back before it runs Python again.  ctypes releases the GIL for
each call into a `CDLL`, and the C functions touch no Python object, so
those calls run alongside each other and alongside one thread's Python.
Everything else, the Python kernels among it and the extension module's
builtins, which read and make Python objects, runs one thread at a time.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import threading
from pathlib import Path
from typing import Any, Callable

FLAGS = ("-O2", "-shared", "-fPIC", "-fno-builtin", "-ffp-contract=off")
LIBS = ("-lm",)
COMPILE_TIMEOUT = 120.0  # seconds; the program's one source compiles in about 0.3 s
MODULE = "delaycert._native"  # the extension module's name: its init function is PyInit__native

PY_POW = r"""
#include <errno.h>
#include <math.h>

/* x ** e as CPython 3.11's float_pow computes it, for e a positive whole
   number, or infinity for one past the float range; *ovf is set where
   Python raises OverflowError */
static double py_pow(double x, double e, int odd, int *ovf)
{
    int negate = 0;
    double r;
    if (e == HUGE_VAL)  /* Python cannot convert e to a float */
        *ovf = 1;
    if (x != x)
        return x;
    if (x == HUGE_VAL || x == -HUGE_VAL)
        return odd ? x : HUGE_VAL;
    if (x == 0.0)
        return odd ? x : 0.0;
    if (x < 0.0) {
        x = -x;
        negate = odd;
    }
    if (x == 1.0)
        return negate ? -1.0 : 1.0;
    errno = 0;
    r = pow(x, e);
    if (errno == 0) {  /* _Py_ADJUST_ERANGE1 */
        if (r == HUGE_VAL || r == -HUGE_VAL)
            errno = ERANGE;
    }
    else if (errno == ERANGE && r == 0.0)
        errno = 0;
    if (negate)
        r = -r;
    if (errno != 0)
        *ovf = 1;
    return r;
}
"""


def _compiler() -> str | None:
    import sysconfig

    cc = (sysconfig.get_config_var("CC") or "").split()[:1]
    for name in [*cc, "cc"]:
        if path := shutil.which(name):
            return path
    return None


def _include() -> str:
    """sysconfig's directory of Python's headers."""
    import sysconfig

    return sysconfig.get_paths()["include"]


def _headers() -> str | None:
    """The directory of Python.h, where it is found: the one test of
    whether the extension section is compiled (see the module docstring)."""
    include = _include()
    return include if os.path.isfile(os.path.join(include, "Python.h")) else None


def _flags() -> tuple[str, ...]:
    """FLAGS, and where Python.h is found, its directory and the flag that
    includes it ahead of the source, which defines Py_PYTHON_H."""
    include = _headers()
    return FLAGS if include is None else (*FLAGS, "-I", include, "-include", "Python.h")


def _path(source: str) -> Path:
    """Where the object compiled from source is cached."""
    import hashlib
    import sysconfig

    abi = sysconfig.get_config_var("EXT_SUFFIX") or ""
    key = hashlib.sha256("\n".join([*_flags(), *LIBS, abi, source]).encode()).hexdigest()
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "delaycert" / f"{key}.so"


def _compile(source: str, path: Path) -> bool:
    """Compile source into path; False when that cannot be done."""
    import subprocess
    import tempfile

    cc = _compiler()
    if cc is None:
        return False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
        os.close(fd)
    except OSError:
        return False
    try:
        subprocess.run([cc, *_flags(), "-x", "c", "-", "-o", tmp, *LIBS], input=source.encode(),
                       capture_output=True, timeout=COMPILE_TIMEOUT, check=True)
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(source: str, opener: Callable[[Path], Any]):
    """opener(path) of the object compiled from source, compiled first
    where it is not cached; a file opener fails on is rebuilt once.  None
    where it cannot be built or opened."""
    path = _path(source)
    for attempt in range(2):
        if (attempt or not path.exists()) and not _compile(source, path):
            return None
        try:
            return opener(path)
        except (OSError, ImportError):  # a damaged file
            pass
    return None


def load(source: str):
    """The ctypes library compiled from source, or None (see the module
    docstring)."""
    import ctypes

    return _open(source, lambda path: ctypes.CDLL(str(path)))


def _module(path: Path):
    import importlib.machinery
    import importlib.util

    loader = importlib.machinery.ExtensionFileLoader(MODULE, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(MODULE, loader))
    loader.exec_module(module)
    return module


def extension(source: str):
    """The object compiled from source as the extension module MODULE,
    which source defines where Py_PYTHON_H is; None where Python.h is not
    found, and where `load` would return None."""
    return None if _headers() is None else _open(source, _module)


_held = threading.local()  # .lock: the lock of the calling thread's `held` block


@contextlib.contextmanager
def held(lock):
    """Run the block holding lock, which `call` lets go of while C runs
    (see the module docstring)."""
    with lock:
        _held.lock = lock
        try:
            yield
        finally:
            _held.lock = None


def call(fn, *args):
    """fn(*args), a function of a library `load` returned, with the lock of
    the calling thread's `held` block, if any, let go of while it runs."""
    lock = getattr(_held, "lock", None)
    if lock is None:
        return fn(*args)
    lock.release()
    try:
        return fn(*args)
    finally:
        lock.acquire()
