"""Benchmark of ``extval analyze``, its bootstrap and ``extval simulate``.

Usage (from the repository root):

    python3 bench/run.py --workload analyze-registry --seed 1 --seconds 18 --trace 0

Builds the workload's inputs from ``--seed`` in this process, then runs
the operations in separate operation processes (``bench/worker.py``),
one at a time, each with OpenBLAS and OpenMP pinned to one thread.
With ``--trace 0`` it launches the operation process three times, one
after another. In each launch the first operation is untimed and ends
its set-up; at least one timed operation follows, and more while the
launch's third of ``--seconds`` lasts. The speed probe
(``bench/calibrate.py``) runs between the timed operations, and the
time metrics are given in seconds at the probe's reference speed. With
``--trace 1`` one traced launch does the same with all of ``--seconds``,
and the per-layer metrics come from its spans, in wall seconds but for
``trace.op_s``, which is scaled like ``op_s``.
Every output of every operation is checked (``bench/checks.py``). The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

import os

# Pinned before numpy loads, here and in every operation process.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCHES = 3            # set-ups per untraced run; setup_s is their median
TIME_LIMIT = 170.0      # seconds a run may take, all launches included


class BenchError(Exception):
    """The run cannot produce a result."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(prepared, run_dir: Path, index: int, first_op: int, seconds: float,
           trace: bool, deadline: float) -> dict:
    """Run one operation process to its end and return its result."""
    plan = {"steps": prepared.steps, "first_op": first_op, "seconds": seconds, "trace": trace,
            "probe": prepared.probe}
    plan_path = run_dir / f"plan-{index}.json"
    result_path = run_dir / f"result-{index}.json"
    log_path = run_dir / f"worker-{index}.log"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ, **THREAD_PINS, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(log_path, "w") as log:
        started = _clock()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
            env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - _clock()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"operation process {index} ran past the time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"operation process {index} exited with code {code}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["first_end"] - started
    # Each timed operation at the reference speed: its wall time over the
    # mean of the probes either side of it, times the reference probe time.
    probes = result["probes"]
    for k, op in enumerate(result["ops"][1:], start=1):
        op["ref_s"] = op["seconds"] * calibrate.REF_S[prepared.probe] / ((probes[k - 1] + probes[k]) / 2)
    return result


def judge(prepared, ops: list[dict], verdicts: dict) -> None:
    """Check each operation's outputs, then delete them.

    ``verdicts`` keeps the counts and the first operation's outputs, to
    which every later operation's must be identical.
    """
    for op in ops:
        paths = prepared.outputs(op["op"])
        verdicts["attempted"] += 1
        if op["error"] is not None:
            verdicts["failed"] += 1
            verdicts["errors"].append(f"op {op['op']}: {op['error']}")
            continue
        texts = [p.read_text() if p.exists() else "" for p in paths]
        try:
            complaints = prepared.check(texts)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            complaints = [f"malformed output: {exc!r}"]
        if verdicts["reference"] is None:
            verdicts["reference"] = texts
        elif texts != verdicts["reference"]:
            complaints.append("output differs from the run's first operation on the same inputs")
        if complaints:
            verdicts["failed"] += 1
            verdicts["rejected"] += 1
            verdicts["errors"] += [f"op {op['op']}: {c}" for c in complaints]
        for p in paths:
            p.unlink(missing_ok=True)


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the result object."""
    deadline = _clock() + TIME_LIMIT
    size = (sizes or workloads.FULL)[workload]
    run_dir = BENCH / "runs" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        prepared = workloads.prepare(workload, seed, size, run_dir)
        budgets = [seconds] if trace else [seconds / LAUNCHES] * LAUNCHES
        verdicts = {"attempted": 0, "failed": 0, "rejected": 0, "errors": [], "reference": None}
        results = []
        first_op = 0
        for index, budget in enumerate(budgets):
            result = launch(prepared, run_dir, index, first_op, budget, trace, deadline)
            judge(prepared, result["ops"], verdicts)
            print(f"launch {index}: setup {result['setup_s']:.3f} s, peak RSS {result['peak_rss_mb']:.1f} MB, "
                  f"op seconds {[round(op['seconds'], 3) for op in result['ops']]}, "
                  f"probe seconds {[round(p, 3) for p in result['probes']]}", file=sys.stderr)
            first_op += len(result["ops"])
            results.append(result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed = [op for r in results for op in r["ops"] if op.get("timed") and op["error"] is None]
    if not timed:
        raise BenchError("no timed operation succeeded:\n" + "\n".join(verdicts["errors"][:5]))
    if trace:
        spans = results[0]["spans"]
        peak_mb = tracing.load_peak_mb(spans)
        # trace.op_s is scaled like op_s, so that their ratio is the
        # tracing overhead; the layer times are wall seconds.
        per_op = [tracing.layer_metrics([s for s in spans if s["op"] == op["op"]], op["ref_s"], peak_mb)
                  for op in timed]
        metrics = {name: {"value": statistics.median(m[name] for m in per_op), "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        traces = BENCH / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{workload}-seed{seed}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "ops": results[0]["ops"], "spans": spans}))
    else:
        # The run's speed against the reference one (calibrate.py).
        slowness = statistics.median(p for r in results for p in r["probes"]) / calibrate.REF_S[prepared.probe]
        wall_op = statistics.median(op["seconds"] for op in timed)
        wall_setup = statistics.median(r["setup_s"] for r in results)
        print(f"wall: op {wall_op:.4f} s, setup {wall_setup:.4f} s; slowness {slowness:.4f}", file=sys.stderr)
        metrics = {
            "op_s": {"value": statistics.median(op["ref_s"] for op in timed), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results), "unit": "MB"},
            "setup_s": {"value": wall_setup / slowness, "unit": "s"},
        }
    for line in verdicts["errors"]:
        print(line, file=sys.stderr)
    return {
        "correct": verdicts["rejected"] == 0,
        "attempted": verdicts["attempted"],
        "failed": verdicts["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "extval" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'extval'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every launch then imports from bytecode, the first one included.
    compileall.compile_dir(str(SRC), quiet=1)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
