"""``lanes.run`` and ``lanes.pinned``: results in task order whichever lane
ran which task, the calling thread starting on task 1 however fast the
worker starts, both lanes awaited, no thread left behind, and OpenBLAS
held to one thread while the lanes run and restored after, or left alone
when its library or symbols are not found."""

import ast
import concurrent.futures
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import erkg.nuclear as nuclear
import erkg.ranking as ranking
import erkg.training as training
import oracles
from erkg import lanes
from erkg.data import add_reciprocals, build_filter_index, generate_synthetic
from erkg.models import init_params
from erkg.ranking import evaluate
from erkg.regularizers import EpsilonState, RegularizerSpec
from erkg.training import TrainConfig, batch_objective, save_checkpoint, train
from test_batch_objective import outcome_bytes

PACKAGES = tuple(lanes._LIBRARIES)
needs_blas = pytest.mark.skipif(not all(lanes._openblas(p) for p in PACKAGES),
                                reason="no bundled OpenBLAS found")


def tasks(work, parts):
    """One task per part, running ``work(part, lane)``."""
    return [lambda lane, part=part: work(part, lane) for part in parts]


def blas_threads():
    """The thread count of numpy's and of scipy's OpenBLAS."""
    return tuple(get() for p in PACKAGES for get, _set in lanes._openblas(p))


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at two threads for the test, whatever the environment set."""
    before = blas_threads()
    sets = [set_ for p in PACKAGES for _get, set_ in lanes._openblas(p)]
    for set_ in sets:
        set_(2)
    yield
    for set_, n in zip(sets, before):
        set_(n)


@pytest.fixture(scope="module")
def graph():
    store, categories = generate_synthetic(300, 4, 6, 120, 0.05, seed=5)
    return add_reciprocals(store), categories


def full_batch(graph):
    store, categories = graph
    params = init_params("complex", store.vocab.n_entities, store.vocab.n_relations, 32, seed=3)
    spec = RegularizerSpec(kind="er", lam=0.05, er_mode="joint", second_order=True)
    eps = EpsilonState.create(store.vocab.n_relations)
    return params, store.train[:250], spec, categories, eps, store


def recording_parts(patch, delay_worker=0.0):
    """Wrap ``training._batch_ce`` to record ``(rows, on the calling
    thread)`` per loss part, sleeping ``delay_worker`` first on the worker."""
    batch_ce, calling, seen = training._batch_ce, threading.current_thread(), []

    def recorded(params, batch, *args):
        here = threading.current_thread() is calling
        if not here:
            time.sleep(delay_worker)
        seen.append((len(batch), here))
        return batch_ce(params, batch, *args)

    patch.setattr(training, "_batch_ce", recorded)
    return seen


def slow_penalty(patch, delay):
    penalty = training._penalty

    def slowed(*args):
        time.sleep(delay)
        return penalty(*args)

    patch.setattr(training, "_penalty", slowed)


def test_part_assignment_moves_no_bit(graph, monkeypatch):
    """The worker ranks both loss parts while a slow penalty holds the
    calling thread, or only the first while a slow worker lets the calling
    thread take the second: the outcomes are the same bytes, and the
    oracle's."""
    params, batch, spec, categories, eps, store = full_batch(graph)
    outcomes, assignments = [], []
    for penalty_delay, worker_delay in ((0.5, 0.0), (0.0, 0.5)):
        e = eps.copy()
        with monkeypatch.context() as patch:
            seen = recording_parts(patch, worker_delay)
            slow_penalty(patch, penalty_delay)
            result = batch_objective(params, batch, spec, categories, e, store, 3, 4)
        outcomes.append(outcome_bytes(result, e))
        assignments.append(sorted(seen))
    assert assignments == [[(100, False), (150, False)], [(100, True), (150, False)]]
    e = eps.copy()
    want = outcome_bytes(oracles.batch_objective(params, batch, spec, categories, e, store, 3, 4), e)
    assert outcomes[0] == outcomes[1] == want


@pytest.mark.parametrize("n, rows", [(1, [1]), (2, [1, 1]), (3, [2, 1]), (5, [3, 2]),
                                     (250, [150, 100])])
def test_row_parts_are_never_empty(graph, n, rows, monkeypatch):
    params, batch, spec, categories, eps, store = full_batch(graph)
    e = eps.copy()
    with monkeypatch.context() as patch:
        seen = recording_parts(patch)
        result = batch_objective(params, batch[:n], spec, categories, e, store, 3, 4)
    assert sorted((len_ for len_, _ in seen), reverse=True) == rows
    e_oracle = eps.copy()
    want = oracles.batch_objective(params, batch[:n], spec, categories, e_oracle, store, 3, 4)
    assert outcome_bytes(result, e) == outcome_bytes(want, e_oracle)


def test_checkpoint_is_the_same_run_to_run(graph, tmp_path):
    """Two trainings of one config, the interpreter switching threads every
    microsecond, write byte-identical checkpoints."""
    store, categories = graph
    spec = RegularizerSpec(kind="er", lam=0.05, er_mode="proximity", second_order=True)
    config = TrainConfig(model="complex", dim=16, batch_size=128, epochs=1, regularizer=spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name in ("a", "b"):
            params, eps, _history = train(config, store, categories)
            save_checkpoint(params, eps, tmp_path / name)
    finally:
        sys.setswitchinterval(interval)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_results_in_part_order_and_no_thread_left():
    before = set(threading.enumerate())
    results = lanes.run(tasks(lambda part, lane: part * part, range(9)))
    assert results == [k * k for k in range(9)]
    with pytest.raises(ZeroDivisionError):
        lanes.run(tasks(lambda part, lane: 1 / part, [3, 0, 2, 1]))
    assert set(threading.enumerate()) == before


def test_every_part_runs_once_under_fast_switching():
    """2,000 tiny parts with the interpreter switching threads every
    microsecond: each part runs exactly once, on either lane."""
    calls, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = lanes.run(tasks(lambda part, lane: calls.append((part, lane)) or -part,
                                  range(2000)))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(part for part, _ in calls) == list(range(2000))
    assert results == [-k for k in range(2000)]
    assert {lane for _, lane in calls} == {0, 1}


def test_calling_thread_error_wins():
    calling = threading.current_thread()

    def fail(part, lane):
        raise (KeyError if threading.current_thread() is calling else ValueError)(part)

    with pytest.raises(KeyError):
        lanes.run(tasks(fail, [0, 1]))


def test_calling_thread_starts_on_task_1(monkeypatch):
    """A worker that starts 0.2 s before the calling thread goes on, long
    enough to finish task 0 and claim again, still leaves task 1 to the
    calling thread: both first claims are drawn before it starts."""
    submit = concurrent.futures.ThreadPoolExecutor.submit

    def submit_and_sleep(*args, **kwargs):
        future = submit(*args, **kwargs)
        time.sleep(0.2)
        return future

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", submit_and_sleep)
    calling = threading.current_thread()
    here = lanes.run(tasks(lambda part, lane: threading.current_thread() is calling, range(3)))
    assert here[:2] == [False, True]


@needs_blas
def test_lanes_pin_numpy_blas_and_restore_it(two_blas_threads):
    during = []
    lanes.run(tasks(lambda part, lane: during.append(blas_threads()), [0, 1, 2]))
    assert during == [(1, 2)] * 3 and blas_threads() == (2, 2)
    with lanes.pinned("numpy", "scipy"):
        with lanes.pinned("numpy"):
            assert blas_threads() == (1, 1)
        assert blas_threads() == (1, 1)
    assert blas_threads() == (2, 2)


@needs_blas
def test_one_task_pins_numpy_blas(two_blas_threads):
    """A lone task runs on the calling thread with numpy's OpenBLAS at one
    thread, as each task of a longer list does, and the count is restored."""
    during = []
    lanes.run(tasks(lambda part, lane: during.append(blas_threads()), [0]))
    assert during == [(1, 2)] and blas_threads() == (2, 2)


@needs_blas
def test_program_restores_the_blas_thread_count(graph, two_blas_threads, monkeypatch):
    """``batch_objective`` and ``evaluate`` hold numpy's OpenBLAS to one
    thread while they work, ``check_instance`` scipy's too, and all leave
    them at two."""
    params, batch, spec, categories, eps, store = full_batch(graph)
    during = []
    for owner, name in ((training, "forward_all_tails"), (ranking, "forward_all_tails"),
                        (nuclear, "_stage_objective")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, name=name, **k: during.append(
            (name, blas_threads())) or fn(*a, **k))
    batch_objective(params, batch, spec, categories, eps.copy(), store, 3, 4)
    assert blas_threads() == (2, 2)
    evaluate(params, store.test, build_filter_index(store), chunk=64)
    assert blas_threads() == (2, 2)
    nuclear.check_instance(nuclear.make_instance(3, 2, 3, 2, 2, "bilinear", seed=1),
                           "amgm4", restarts=1)
    assert blas_threads() == (2, 2)
    assert set(during) == {("forward_all_tails", (1, 2)), ("_stage_objective", (1, 1))}


@pytest.mark.parametrize("missing", ["library", "symbol"])
def test_missing_library_or_symbol_pins_nothing(graph, missing, monkeypatch, two_blas_threads):
    """With every library or every symbol renamed away, nothing is found
    and a pin leaves the thread counts alone."""
    gone = {package: ("erkg_missing_*" if missing == "library" else library,
                      "erkg_missing_{}" if missing == "symbol" else symbol)
            for package, (library, symbol) in lanes._LIBRARIES.items()}
    real = [get for package in PACKAGES for get, _set in lanes._openblas(package)]
    monkeypatch.setattr(lanes, "_LIBRARIES", gone)
    monkeypatch.setattr(lanes, "_blas", {})
    with lanes.pinned("numpy", "scipy"):
        assert lanes._blas == {"numpy": [], "scipy": []}
        assert [get() for get in real] == [2] * len(real)
    params, _batch, _spec, _categories, _eps, store = full_batch(graph)
    filter_index = build_filter_index(store)
    got = evaluate(params, store.test, filter_index, keep_ranks=True, chunk=64)
    want = oracles.evaluate(params, store.test, filter_index, keep_ranks=True, chunk=64)
    assert np.array_equal(got.per_query_ranks, want.per_query_ranks)


CHECKPOINT_SHA1 = """
import hashlib, sys
from erkg.data import add_reciprocals, generate_synthetic
from erkg.regularizers import RegularizerSpec
from erkg.training import TrainConfig, save_checkpoint, train
store = add_reciprocals(generate_synthetic(600, 4, 10, 150, 0.05, seed=5)[0])
config = TrainConfig(model="complex", dim=64, batch_size=500, epochs=1,
                     regularizer=RegularizerSpec(kind="none"))
params, eps, _history = train(config, store)
save_checkpoint(params, eps, sys.argv[1])
print(hashlib.sha1(open(sys.argv[1], "rb").read()).hexdigest())
"""


def test_penalty_free_checkpoint_ignores_the_blas_thread_count(tmp_path):
    """One penalty-free epoch writes the same checkpoint bytes at default
    OpenBLAS threading and at one thread: its loss runs on the lanes,
    which pin the library (some of its GEMM shapes round differently on
    two threads)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    digests = [
        subprocess.run([sys.executable, "-c", CHECKPOINT_SHA1, str(tmp_path / name)],
                       env={**env, **threads}, capture_output=True, text=True, check=True,
                       timeout=300).stdout.strip()
        for name, threads in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"}))
    ]
    assert digests[0] == digests[1]


def test_import_looks_up_no_blas():
    """``import erkg`` neither imports ``ctypes`` into ``lanes`` nor finds
    the OpenBLAS library: the lookup waits for the first pin."""
    code = "import erkg; print(erkg.lanes._blas, 'ctypes' in vars(erkg.lanes))"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["{}", "False"]


def _named_calls(node, function=""):
    """``(enclosing function, called name)`` of every call under ``node``,
    by the innermost function around it ("" at module level)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        yield function, getattr(node.func, "id", getattr(node.func, "attr", None))
    for child in ast.iter_child_nodes(node):
        yield from _named_calls(child, function)


def _names(node):
    """What ``node`` names: a name, an attribute, or each dotted part of an import."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        dotted = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
        return [part for name in dotted for part in name.split(".")]
    return []


def test_threads_and_the_lbfgsb_core_have_one_place_each():
    """Only ``lanes`` names ``threading`` or ``ThreadPoolExecutor``, only
    ``nuclear._restart`` calls the stage loop ``_lbfgsb``, and only
    ``_lbfgsb`` calls scipy's L-BFGS-B core ``setulb``."""
    threads, calls = set(), {"_lbfgsb": set(), "setulb": set()}
    for path in sorted(Path(lanes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {name for node in ast.walk(tree) for name in _names(node)}
        if named & {"threading", "ThreadPoolExecutor"}:
            threads.add(path.name)
        for function, name in _named_calls(tree):
            if name in calls:
                calls[name].add((path.name, function))
    assert threads == {"lanes.py"}
    assert calls == {"_lbfgsb": {("nuclear.py", "_restart")},
                     "setulb": {("nuclear.py", "_lbfgsb")}}
