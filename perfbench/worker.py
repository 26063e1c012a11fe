"""One workload in one fresh, single-threaded process: set up, then a closed
loop with one client.  Started by ``run.py``; prints one JSON line.

    worker.py WORKLOAD SEED SECONDS TRACE WORKDIR SPAWNED_AT [--setup-only]

``SPAWNED_AT`` is the parent's ``time.perf_counter()`` just before the
spawn; on Linux that clock is system-wide, so set-up time runs from the
spawn to the first timed op.  The calibration kernel (``calibrate.py``)
runs once before the first op and once after every op, outside the timed
intervals, so that each op's time can be given at the reference speed.
"""

import json
import resource
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter


def main(argv) -> int:
    workload, seed, seconds, trace, workdir, spawned_at = argv[:6]
    seed, seconds, trace, spawned_at = int(seed), float(seconds), int(trace), float(spawned_at)
    workdir = Path(workdir)

    import lpmln
    import lpmln.cli  # noqa: F401  (the CLI module is not imported by the package)
    from calibrate import kernel_seconds
    from workloads import DIGESTS, build_round, check, prepare, run_op

    rnd = build_round(workload, seed)
    argvs = prepare(rnd, workdir)
    setup_s = perf_counter() - spawned_at
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # outside set-up: references were computed by the parent
    refs = json.loads((workdir / "refs.json").read_text(encoding="utf-8"))
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    # A traced run alternates traced and untraced rounds in this one
    # process, so both see the same machine; the first round is traced.
    latencies, traced, failures = [], [], []
    n_round = len(rnd.ops)
    kernels = [kernel_seconds()]
    start = perf_counter()
    i = 0
    while True:
        k = i % n_round
        on = bool(tracer) and (i // n_round) % 2 == 0
        if tracer and k == 0:
            tracer.enable(on)
        op = rnd.ops[k]
        span = tracer.begin_op() if on else None
        t0 = perf_counter()
        try:
            code, output = run_op(op, argvs[k], lpmln)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            code, output = None, None
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if on:
            tracer.end_op(span)
        why = error or check(op, code, output, refs[k], digests)
        latencies.append(t1 - t0)
        traced.append(on)
        if why:
            failures.append({"op": i, "key": op.key, "why": why[:300]})
        output = None  # do not hold this output while the next op runs
        kernels.append(kernel_seconds())
        i += 1
        # a traced run covers one traced and one untraced round at least
        if perf_counter() - start >= seconds and (not tracer or i >= 2 * n_round):
            break

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "kernels": kernels,
        "traced": traced,
        "failures": failures,
        "round": [op.key for op in rnd.ops],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": threading.active_count(),
    }
    if tracer:
        summary = tracer.summary(n_round)
        result["trace"] = summary
        spans_file = workdir.parent / f"spans-{workload}-seed{seed}.json"
        spans_file.write_text(json.dumps({
            "fields": ["op", "layer", "name", "start_s", "end_s", "parent"],
            "round": result["round"],
            "spans": [[o, l, n, round(s - start, 7), round(e - start, 7), p]
                      for o, l, n, s, e, p in tracer.spans]}), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
