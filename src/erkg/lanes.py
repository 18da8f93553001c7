"""Two lanes for the program's threads: the calling thread and one worker.

``run(tasks)`` returns ``[task(lane) for task in tasks]`` in task order.
The worker (lane 1) starts on task 0 and the calling thread (lane 0) on
task 1; then each lane pulls the next task from one counter.  Both
first claims are drawn before the worker starts: a worker that claimed
task 1 would run the calling thread's task, and the memory it allocates
would grow the worker's own malloc arena.  Once a lane raises no task
is handed out; both lanes are awaited, and if both raise, the calling
thread's error is.  With at most one task no thread starts.  While the
tasks run, however many there are, numpy's bundled OpenBLAS is held to
one thread (``pinned``), so its threads do not compete with the lanes
and a task's bits do not depend on the task count; a library or symbol
that is not found is left alone.

The program's other native code, scipy's compiled kernels, is loaded
here too (``scipy_function``): each extension module on its own, so
that no scipy package ``__init__`` runs.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
from importlib.util import find_spec
from pathlib import Path

from .errors import ConfigError

# the OpenBLAS bundled with each package: library in ``<package>.libs``,
# thread-count symbols ({} get or set)
_LIBRARIES = {"numpy": ("libscipy_openblas64_*", "scipy_openblas_{}_num_threads64_"),
              "scipy": ("libscipy_openblas*", "scipy_openblas_{}_num_threads")}
_blas = {}  # package -> [(get, set), ...] of the libraries found, once looked up


def _openblas(package):
    if package not in _blas:
        import ctypes

        library, symbol = _LIBRARIES[package]
        _blas[package] = []
        libs = Path(find_spec(package).origin).parents[1] / f"{package}.libs"
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


def scipy_function(module, name):
    """``name`` from scipy's compiled extension module ``scipy.<module>``
    (such as ``"sparse._sparsetools"``), loaded on its own and registered
    in ``sys.modules`` unless already imported: importing it by name would
    first run the ``__init__`` of each package above it, for
    ``scipy.sparse`` 0.13 s and 22 MB, for ``scipy.optimize`` 0.6 s and
    50 MB.  ``ConfigError`` naming it if the module or ``name`` is missing."""
    full = f"scipy.{module}"
    try:
        if full not in sys.modules:
            from importlib.machinery import PathFinder
            from importlib.util import module_from_spec

            package = Path(find_spec("scipy").origin).parent.joinpath(*module.split(".")[:-1])
            spec = PathFinder.find_spec(full, [str(package)])
            loaded = module_from_spec(spec)
            spec.loader.exec_module(loaded)
            sys.modules[full] = loaded
        return getattr(sys.modules[full], name)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"erkg needs scipy >= 1.15 with its compiled {full}.{name}: "
                          f"{exc}") from exc


def run(tasks):
    """``[task(lane) for task in tasks]`` on two lanes."""
    if len(tasks) < 2:
        with pinned("numpy"):
            return [task(0) for task in tasks]
    from concurrent.futures import ThreadPoolExecutor

    results, counter, failed = [None] * len(tasks), itertools.count(), []

    def claim():  # itertools.count's next is atomic under the GIL
        return len(tasks) if failed else next(counter)

    def lane(index, i):
        try:
            while i < len(tasks):
                results[i] = tasks[i](index)
                i = claim()
        except BaseException:
            failed.append(index)
            raise

    theirs, mine = next(counter), next(counter)
    with pinned("numpy"), ThreadPoolExecutor(max_workers=1) as worker:
        far = worker.submit(lane, 1, theirs)
        lane(0, mine)
    far.result()
    return results
