"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload er-uniform --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  It writes the workload's inputs once
per seed (``bench/inputs.py``, its own interpreter), measures set-up in
fresh interpreters, then times whole rounds of the workload for
``--seconds`` in a fresh measuring interpreter (``bench/worker.py``) with
OpenBLAS pinned to one thread.  Times are reported at a reference host
speed (``bench/hostspeed.py``).  With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  Details,
the fingerprint and the BLAS build go to ``bench/out/``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("er-uniform", "er-skewed", "rank-m", "nuclear")
# Set-up is measured in this many fresh interpreters (the last one goes on
# to measure), and reported as their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _env() -> dict:
    env = dict(os.environ)
    # BLAS threads must be fixed before numpy loads; the machine's cores are
    # shared, and more threads only add variance.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(cmd, timeout):
    """Run a child interpreter; it is killed if this process stops first."""
    with subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"{Path(cmd[1]).name} exited with {proc.returncode}")
    return out


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def prepare_inputs(workload: str, seed: int) -> Path:
    out = HERE / "work" / f"{workload}-seed{seed}"
    if (out / "stats.json").exists():
        return out
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        _run([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
              "--seed", str(seed), "--out", str(tmp)], CHILD_TIMEOUT_S)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="erkg benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "erkg" / "__init__.py").is_file():
        print(f"no erkg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inputs = prepare_inputs(args.workload, args.seed)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--inputs", str(inputs), "--seed", str(args.seed)]
    samples = [_last_json(_run(worker + ["--setup-only"], CHILD_TIMEOUT_S))
               for _ in range(SETUP_SAMPLES - 1)]
    res = _last_json(_run(worker + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], CHILD_TIMEOUT_S))
    samples.append(res)
    setups = [s["setup_s"] for s in samples]
    res["setup_samples_s"] = setups
    res["setup_raw_samples_s"] = [s["setup_raw_s"] for s in samples]
    res["setup_loop_samples"] = [s["setup_loops"] for s in samples]
    res["inputs"] = json.loads((inputs / "stats.json").read_text())

    if args.trace:
        metrics = res["trace"]
    else:
        metrics = {
            "items_per_s": {"value": res["items_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    correct = res["failed"] == 0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1, sort_keys=True))
    for msg in res["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"fingerprint": res["fingerprint"], "blas": res["blas"]},
                     sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
