"""C compiled once into a shared object and cached on disk.

`load(source)` compiles C source with the system C compiler and loads the
result with ctypes.  The object is cached under $XDG_CACHE_HOME/delaycert
(by default ~/.cache/delaycert), named by the sha256 of the source and the
compiler flags, so every later process that loads the same source loads
it without compiling.  It is written under a temporary name and renamed into
place, so processes that compile the same source at once do not see each
other's partial files.  A cached file that fails to load is rebuilt once.

`load` returns None when no compiler is found, the compile fails or times
out, or the cache cannot be written; the callers then run their Python code,
which computes the same values.  The flags keep the C arithmetic that of
Python: no -ffast-math, no FMA contraction (-ffp-contract=off), and no
builtin folding of pow (-fno-builtin), so that pow(x, 2.0) is the C
library's pow, as in Python, and not x * x.  CFLAGS from the environment are
not read.

The program loads one source: `simulate._SOURCE`, which holds `PY_POW`,
the RK4 kernel, which also iterates discrete maps, the certificate
margins `margins_at` and the CSV writer.  Its text does not depend on the
system: nothing in the program is generated from one.  It is compiled
once per machine, into one cached object that serves every run, every
export and every certificate search; nothing is loaded at import.  The CSV
writer calls __builtin_floor, __builtin_fabs and __builtin_memcpy by those
names, which -fno-builtin leaves the compiler free to expand inline.  That
is safe where pow's folding is not: floor and fabs are exact in IEEE
arithmetic and memcpy copies bytes, so an expansion gives the library
call's result.

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
Everything else, the Python kernels among it, runs one thread at a time.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import threading
from pathlib import Path

FLAGS = ("-O2", "-shared", "-fPIC", "-fno-builtin", "-ffp-contract=off")
LIBS = ("-lm",)
COMPILE_TIMEOUT = 120.0  # seconds; the program's one source compiles in about 0.3 s

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


def _path(source: str) -> Path:
    """Where the object compiled from source is cached."""
    import hashlib

    key = hashlib.sha256("\n".join([*FLAGS, *LIBS, source]).encode()).hexdigest()
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
        subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp, *LIBS], input=source.encode(),
                       capture_output=True, timeout=COMPILE_TIMEOUT, check=True)
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(source: str):
    """The ctypes library compiled from source, or None (see the module
    docstring)."""
    import ctypes

    path = _path(source)
    for attempt in range(2):
        if (attempt or not path.exists()) and not _compile(source, path):
            return None
        try:
            return ctypes.CDLL(str(path))
        except OSError:  # a damaged file: rebuilt once
            pass
    return None


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
