"""Hold every loaded OpenBLAS to one thread while polydiv does dense algebra.

numpy and scipy each bundle their own OpenBLAS, and each sizes its thread
pool to the CPU count.  On few CPUs the two pools contend: after a threaded
numpy product, numpy's workers still spin while scipy's ``expm`` of a 4 x 4
block waits for a CPU.  polydiv's matrices are small, so one thread is
faster.  The count is process-wide, so all scopes share one depth count
under a lock: the first entry sets 1 and the last exit restores the counts
it found.  The libraries are found on the first entry, from the process's
memory map (Linux); where none is found, a scope does nothing.
"""

import ctypes
import functools
import os
import threading

_LOCK = threading.Lock()
_saved = []      # the counts the outermost scope found
_depth = 0


@functools.cache
def _found():
    """(file name, openblas_set_num_threads_local) per library; call with ``_LOCK`` held."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.rstrip("\n").split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    libs = []
    for path in sorted({f[5] for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        libs.append((os.path.basename(path), setter))
    return tuple(libs)


def libraries():
    """File names of the OpenBLAS libraries that scoped calls hold to one thread."""
    with _LOCK:
        return [name for name, _ in _found()]


def single_thread(fn):
    """Run ``fn`` with every loaded OpenBLAS on one thread; restore the
    caller's counts when the outermost such call returns or raises."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        global _depth, _saved
        with _LOCK:
            if _depth == 0:
                _saved = [setter(1) for _, setter in _found()]
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _LOCK:
                _depth -= 1
                if _depth == 0:
                    for (_, setter), count in zip(_found(), _saved):
                        setter(count)
    return scoped
