"""The operation process: runs one workload's operations through
``extval.cli.main`` and records their times.

Usage: python3 bench/worker.py PLAN.json RESULT.json

PLAN.json holds ``steps`` (the argument lists of the ``main`` calls that
make one operation, with ``{op}`` standing for the operation's number),
``first_op`` (the number of the first operation), ``seconds`` (the timed
budget), ``trace`` and ``probe`` (the kind of speed probe). The first
operation is untimed: the run's launcher times from the start of this
process to its end (set-up). At least one timed operation follows, and
further ones start while the budget has time left. The speed probe
(``calibrate.probe``) runs before the first timed operation and after
each one, outside their times. Between operations nothing is kept but
their times; a collection runs outside the timed region, so no
operation pays for garbage left by an earlier one. With ``trace`` true,
the spans of every operation are written to RESULT.json at the end.
"""

import gc
import json
import resource
import sys
import time
import traceback


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so the launcher can compare it with
    # the moment it started this process.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from extval.cli import main as extval_main

    def run(op: int) -> dict:
        if tracer is not None:
            tracer.op = op
        start = _clock()
        error = None
        try:
            for step in plan["steps"]:
                code = extval_main([arg.replace("{op}", str(op)) for arg in step])
                if code != 0:
                    error = f"{step[0]} exited with code {code}"
                    break
        except Exception:
            error = traceback.format_exc()
        end = _clock()
        return {"op": op, "start": start, "end": end, "seconds": end - start, "error": error}

    op = plan["first_op"]
    first = run(op)
    if tracer is not None:
        tracer.measure_memory = False
    ops = [first]
    # The program's peak: the probe, which follows, allocates its own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.collect()
    import calibrate  # after the set-up, which it is not part of
    probes = [calibrate.probe(plan["probe"])]
    budget_start = _clock()
    while len(ops) == 1 or _clock() - budget_start < plan["seconds"]:
        op += 1
        record = run(op)
        record["timed"] = True
        ops.append(record)
        gc.collect()
        probes.append(calibrate.probe(plan["probe"]))
    result = {
        "first_end": first["end"],
        "ops": ops,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
