"""Seeded benchmark of the lpmln package: four workloads, end-to-end metrics
from untraced runs, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each workload runs in a fresh,
single-threaded Python process (``worker.py``) as a closed loop with one
client: the next op starts when the previous one returns.  Every op's
output is checked against a reference that does not come from the engine
(``oracles.py``) and, for CLI ops, against the stdout digest recorded in
``digests.json``.  References are computed here, before the worker starts,
so they count neither in set-up time nor in the worker's memory.

Times are given at a reference machine speed (``calibrate.py``): a fixed
kernel that shares no code with the package runs next to every timed
interval, and each interval is scaled by the kernel's nominal over its
measured time.  The shared host's speed drifts by more than the bounds
within minutes; the scaling cancels that drift and leaves the package's
own speed.  Raw wall-clock figures are printed and kept in the result file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one worker
whose rounds alternate between traced and untraced, and prints the
per-layer metrics, each layer's share of traced op time and the tracing
overhead (traced against untraced time of the same ops).
The last line of stdout is one JSON object; everything above it is for
people.  Generated files, results and span dumps go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import NOMINAL_S, kernel_seconds, normalise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SPAWNS = 8       # set-up-only processes per run, plus the measured one
WORKER_TIMEOUT_S = 150
# What every worker inherits: nothing else from the caller's environment,
# so LPMLN_ATOM_CAP and friends cannot leak in.
PINNED_ENV = {"PYTHONHASHSEED": "0", "PYTHONPATH": "src", "PYTHONUTF8": "1"}

# Metric names and units come from BENCHMARK.json; the failure share is
# printed for people but not bounded there: it is 0 when all is well, so a
# bound relative to it means nothing.  Failures are reported in "failed".
PRINTED_ONLY = {"fail_frac": "ratio"}


def _spec() -> dict:
    """end_to_end and per_layer metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _env() -> dict:
    env = dict(PINNED_ENV)
    env["PATH"] = os.environ.get("PATH", "/usr/bin:/bin")
    return env


def _spawn(workload, seed, seconds, trace, workdir, setup_only=False) -> dict:
    """Run one worker and return its result; ``setup_kernels`` holds the
    calibration kernel's time just before the spawn and just after it."""
    before = kernel_seconds()
    argv = [sys.executable, "-s", str(HERE / "worker.py"), workload, str(seed),
            str(seconds), str(trace), str(workdir)]
    spawned_at = perf_counter()
    argv.append(repr(spawned_at))
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
    res["setup_kernels"] = [before, kernel_seconds()]
    return res


def setup_seconds(res: dict) -> tuple:
    """(set-up time at the reference speed, raw set-up time)."""
    return normalise([res["setup_s"]], res["setup_kernels"])[0], res["setup_s"]


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond
    it: (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 10 if n > 10 else n  # too few samples: the slowest one
    return ordered[k - 1], 100.0 * k / n, n


def round_rate(lat: list, n_round: int) -> float:
    """Ops per second of the round's op mix: the round length over the sum,
    across round positions, of each position's mean latency.  Every
    position weighs the same, whatever part of its last round the loop
    reached, so a loop cut early in a round of cheap ops reads no faster."""
    by_pos: dict = {}
    for i, x in enumerate(lat):
        by_pos.setdefault(i % n_round, []).append(x)
    return len(by_pos) / sum(statistics.fmean(v) for v in by_pos.values())


def loop_metrics(res: dict, n_round: int) -> dict:
    raw = res["latencies"]
    lat = normalise(raw, res["kernels"])
    failed = {f["op"] for f in res["failures"]}
    # a failed op misses every latency target: score it as the whole loop
    scored = [sum(lat) if i in failed else x for i, x in enumerate(lat)]
    value, pct, n = tail(scored)
    correct_share = 1.0 - len(failed) / len(lat)
    return {
        "ops_per_s": correct_share * round_rate(lat, n_round),
        "latency_p50_ms": statistics.median(scored) * 1e3,
        "latency_tail_ms": value * 1e3,
        "tail_percentile": pct,
        "samples": n,
        "attempted": len(lat),
        "failed": len(failed),
        "peak_rss_mib": res["peak_rss_mib"],
        "raw_ops_per_s": correct_share * round_rate(raw, n_round),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "kernel_ms": statistics.median(res["kernels"]) * 1e3,
    }


def tracing_overhead(res: dict, n_round: int) -> dict:
    """Traced against untraced throughput, from the alternating rounds of
    one traced worker, at the reference speed; the ratio compares each op
    with itself."""
    failed = {f["op"] for f in res["failures"]}
    latencies = normalise(res["latencies"], res["kernels"])
    by_pos = {True: {}, False: {}}  # traced? -> round position -> latencies
    for i, (lat, on) in enumerate(zip(latencies, res["traced"])):
        by_pos[on].setdefault(i % n_round, []).append(lat)
    both = set(by_pos[True]) & set(by_pos[False])
    mean = {on: sum(statistics.fmean(by_pos[on][k]) for k in both) for on in (True, False)}
    rate = {}
    for on in (True, False):
        ops = [i for i, t in enumerate(res["traced"]) if t == on]
        busy = sum(latencies[i] for i in ops)
        rate[on] = sum(1 for i in ops if i not in failed) / busy if busy else 0.0
    return {"ops_per_s": rate[True], "untraced_ops_per_s": rate[False],
            "overhead": mean[True] / mean[False] if mean[False] else 0.0}


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "env": _env() | {"PATH": "<inherited>"},
            "cpus": os.cpu_count()}


def run(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import build_round, references

    workdir = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rnd = build_round(args.workload, args.seed)
        (workdir / "refs.json").write_text(
            json.dumps(references(rnd)), encoding="utf-8")
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "round": [op.key for op in rnd.ops], "environment": environment()}
        n_round = len(rnd.ops)
        if args.trace == 0:
            def setup_only():
                return setup_seconds(_spawn(args.workload, args.seed, 0, 0, workdir, True))
            setup_only()  # warm-up: fills the bytecode cache like any earlier use
            # set-up samples on both sides of the loop, to see two moments
            setups = [setup_only() for _ in range(SETUP_SPAWNS // 2)]
            res = _spawn(args.workload, args.seed, args.seconds, 0, workdir)
            setups += [setup_seconds(res)] + [setup_only() for _ in range(SETUP_SPAWNS // 2)]
            report["setup_samples_s"] = [s for s, _ in setups]
            report["raw_setup_samples_s"] = [r for _, r in setups]
            report["loop"] = loop_metrics(res, n_round)
            report["latencies_s"] = res["latencies"]
            report["kernels_s"] = res["kernels"]
            report["failures"] = res["failures"][:20]
            report["threads"] = res["threads"]
        else:
            res = _spawn(args.workload, args.seed, args.seconds, 1, workdir)
            report["loop"] = loop_metrics(res, n_round)
            report["layers"] = res["trace"]
            report["overhead"] = tracing_overhead(res, n_round)
            report["failures"] = res["failures"][:20]
            report["threads"] = res["threads"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def render(report: dict, spec: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    loop = report["loop"]
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    print(f"python {env['python']} ({env['implementation']})  "
          f"PYTHONHASHSEED={env['env']['PYTHONHASHSEED']}  worker threads {report['threads']}  "
          f"cpus {env['cpus']}  closed loop, 1 client")
    print(f"round of {len(report['round'])} ops: {', '.join(report['round'])}")
    for f in report["failures"]:
        print(f"FAILED op {f['op']} {f['key']}: {f['why']}")
    attempted, failed = loop["attempted"], loop["failed"]
    if report["trace"] == 0:
        units = spec["end_to_end"] | PRINTED_ONLY
        metrics = {
            "setup_s": statistics.median(report["setup_samples_s"]),
            "ops_per_s": loop["ops_per_s"],
            "latency_p50_ms": loop["latency_p50_ms"],
            "latency_tail_ms": loop["latency_tail_ms"],
            "fail_frac": failed / attempted,
            "peak_rss_mib": loop["peak_rss_mib"],
        }
        notes = {"setup_s": f"median of {len(report['setup_samples_s'])} spawns",
                 "latency_tail_ms": f"p{loop['tail_percentile']:.1f} of {loop['samples']} samples",
                 "fail_frac": f"{failed}/{attempted} ops"}
        print(f"times at the reference speed (calibration kernel {1e3 * NOMINAL_S:.0f} ms; "
              f"measured {loop['kernel_ms']:.2f} ms, median)")
        for name, value in metrics.items():
            print(f"  {name:<16} {value:12.4f} {units.get(name, ''):<5} {notes.get(name, '')}")
        print(f"raw wall clock: setup_s {statistics.median(report['raw_setup_samples_s']):.4f} s  "
              f"ops_per_s {loop['raw_ops_per_s']:.4f} 1/s  "
              f"latency_p50_ms {loop['raw_latency_p50_ms']:.2f} ms")
        wanted = spec["end_to_end"]
    else:
        trace = report["layers"]
        metrics = dict(trace["metrics"])
        for name, value in report["overhead"].items():
            metrics[f"trace.{name}"] = value
        if trace["unmeasured"]:
            print(f"unmeasured layers: {', '.join(trace['unmeasured'])}")
        for layer, names in trace["missing"].items():
            print(f"missing entry points in {layer}: {', '.join(names)}")
        if trace["broken_counters"]:
            print(f"unreadable counters: {', '.join(trace['broken_counters'])}")
        if metrics["trace.count_mismatches"]:
            print(f"WARNING: {metrics['trace.count_mismatches']} repeated ops gave "
                  "different counts than their first run")
        wanted = spec["per_layer"]
        for name in sorted(wanted):
            print(f"  {name:<30} {metrics.get(name, 0.0):14.4f} {wanted[name]}")
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"not measured, reported as 0: {', '.join(missing)}")
    out = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in wanted.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # on SIGTERM unwind normally, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "lpmln" / "__init__.py").is_file():
        print(f"error: no lpmln sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = _spec()
    report = run(args)
    result = render(report, spec)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report | {"result": result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
