"""Two lanes for the program's threads: the calling thread and one worker.

``run(work, parts, here)`` returns ``[work(part, lane) for part in
parts]`` in part order, and ``here()``.  The worker (lane 1) takes part
0 while the calling thread (lane 0) runs ``here``, or takes part 1; then
each lane pulls the next part from one counter.  Once a lane raises no
part is handed out; both lanes are awaited, and if both raise, the
calling thread's error is.  With no ``here`` and at most one part, no
thread starts.  Meanwhile numpy's bundled OpenBLAS is held to one thread
(``pinned``), so its threads do not compete with the lanes; a library or
symbol that is not found is left alone.
"""

from __future__ import annotations

import contextlib
import itertools

# the OpenBLAS bundled with each package: library in ``<package>.libs``,
# thread-count symbols ({} get or set)
_LIBRARIES = {"numpy": ("libscipy_openblas64_*", "scipy_openblas_{}_num_threads64_"),
              "scipy": ("libscipy_openblas*", "scipy_openblas_{}_num_threads")}
_blas = {}  # package -> [(get, set), ...] of the libraries found, once looked up


def _openblas(package):
    if package not in _blas:
        import ctypes
        import importlib
        from pathlib import Path

        library, symbol = _LIBRARIES[package]
        _blas[package] = []
        libs = Path(importlib.import_module(package).__file__).parents[1] / f"{package}.libs"
        for path in libs.glob(library):
            try:
                lib = ctypes.CDLL(str(path))
                get, set_ = (getattr(lib, symbol.format(op)) for op in ("get", "set"))
            except (OSError, AttributeError):
                continue
            get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
            _blas[package].append((get, set_))
    return _blas[package]


@contextlib.contextmanager
def pinned(*packages):
    """The OpenBLAS bundled with each of ``packages`` at one thread inside
    the block, its thread count restored after."""
    held = [(set_, n) for package in packages for get, set_ in _openblas(package)
            if (n := get()) > 1]
    for set_, _ in held:
        set_(1)
    try:
        yield
    finally:
        for set_, n in held:
            set_(n)


def run(work, parts, here=None):
    """``([work(part, lane) for part in parts], here())`` on two lanes."""
    if here is None and len(parts) < 2:
        return [work(part, 0) for part in parts], None
    from concurrent.futures import ThreadPoolExecutor

    results, counter, failed = [None] * len(parts), itertools.count(), []

    def claim():  # itertools.count's next is atomic under the GIL
        return len(parts) if failed else next(counter)

    def lane(index, task, i):
        try:
            value = task() if task else None
            i = claim() if i is None else i
            while i < len(parts):
                results[i] = work(parts[i], index)
                i = claim()
            return value
        except BaseException:
            failed.append(index)
            raise

    theirs, mine = next(counter), (None if here else next(counter))
    with pinned("numpy"), ThreadPoolExecutor(max_workers=1) as worker:
        far = worker.submit(lane, 1, None, theirs)
        value = lane(0, here, mine)
    far.result()
    return results, value
