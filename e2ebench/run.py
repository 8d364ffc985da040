"""End-to-end benchmark of the reordering-study system.

Run from the repository root::

    python3 e2ebench/run.py --workload sweep_warm --seed 1 --seconds 15 --trace 0

The workload's inputs come from ``--seed`` (the same seed gives the
same inputs).  The benchmark sets the workload up several times and
reports the median set-up time, measures the workload for about
``--seconds`` seconds, checks the program's outputs, and prints one
JSON object as the last line of standard output::

    {"correct": true, "attempted": 1200, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 12.3, "unit": "ms"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
the median and 90th percentile of operation latency, where each
distinct input counts once at its fastest repeat (min-of-k), and the
median set-up time.  CPU-bound timings are divided by the host's
slowdown over a calibration kernel (:mod:`hostspeed`).

``--trace 1`` records spans around the calls into each layer and
reports the per-layer metrics of ``BENCHMARK.json`` instead.  They
cover the layers of every workload, so a traced run sets up and
measures each workload once, ``--workload`` first, and fails unless
the workloads together measure exactly the listed metrics.  The spans,
with those the serving daemon records itself, are written to
``.e2ebench_work/traces/`` as a Chrome trace.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 2 and prints no result.  Everything
the run writes stays under ``.e2ebench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench_work")
#: set-up repetitions per run; the median is reported as ``setup_s``
SETUP_REPEATS = 5


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _run_workload(cls, args, run_dir: str, tracer, setups: int) -> dict:
    """Set ``cls`` up ``setups`` times, measure it once, and check it."""
    from hostspeed import HostSpeed

    workload = cls(args.seed, run_dir, tracer)
    setup_times = []
    setup_host = HostSpeed()
    try:
        for _ in range(setups):
            workload.close()       # tearing down is not set-up time
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_host.sample(3)
        m = workload.measure(args.seconds)
        layers = workload.layers() if args.trace else {}
        problems = workload.problems()
    finally:
        workload.close()
    return {"m": m, "layers": layers, "problems": problems,
            "setup_s": statistics.median(setup_times)
            / setup_host.slowdown()}


def run(args, spec: dict) -> dict:
    # single-threaded BLAS: the measured paths are single-threaded or
    # use their own thread pools, and BLAS threads only add noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    from repro.obs.trace import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"have {sorted(WORKLOADS)}")
    names = [args.workload]
    if args.trace:
        names += [n for n in WORKLOADS if n != args.workload]
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}_s{args.seed}_",
                               dir=WORK)
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = run_dir     # anything the program spills stays here
    tracer = Tracer(enabled=bool(args.trace))
    try:
        runs = [_run_workload(WORKLOADS[name], args, run_dir, tracer,
                              1 if args.trace else SETUP_REPEATS)
                for name in names]
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [line for r in runs for line in r["problems"]]
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    attempted = sum(r["m"].attempted for r in runs)
    failed = sum(r["m"].failed for r in runs)
    if args.trace:
        trace_dir = os.path.join(WORK, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.save(os.path.join(trace_dir,
                                 f"{args.workload}_s{args.seed}.json"))
        values = {}
        for r in runs:
            values.update(r["layers"])
        units = {m_["name"]: m_["unit"] for m_ in spec["per_layer"]}
    else:
        m = runs[0]["m"]
        lat = [min(v) for v in m.latencies.values()] or [float("nan")]
        scale = 1e3 / m.host.slowdown()
        values = {
            "latency_p50_ms": statistics.median(lat) * scale,
            "latency_p90_ms": _percentile(lat, 90) * scale,
            "setup_s": runs[0]["setup_s"],
        }
        units = {m_["name"]: m_["unit"] for m_ in spec["end_to_end"]}
    if set(values) != set(units):
        raise SystemExit(
            "measured metrics and BENCHMARK.json disagree: measured, not "
            f"listed {sorted(set(values) - set(units))}; listed, not "
            f"measured {sorted(set(units) - set(values))}")
    return {
        "correct": not problems and failed == 0 and attempted > 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]),
                           "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no program source at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print(f"e2ebench: {spec_path} is missing", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    result = run(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
