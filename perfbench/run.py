"""Benchmark of hetcache's analytic and Monte Carlo engines, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from ``src/`` of
the same checkout and called in-process with ``workers=1``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics
(``setup_s``, ``norm_wall_s``, ``peak_rss_mb``), with ``--trace 1`` the
per-layer metrics and the tracing overhead. See perfbench/README.md.
"""
from __future__ import annotations

import os
import sys

# One thread per BLAS/OpenMP pool, before numpy loads: the benchmark
# measures the single-worker engines, and idle pool threads spinning on a
# shared 2-core machine add run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import time

from hostspeed import HostProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
# Fresh interpreters timed per run, spread over its rounds: the host's
# speed drifts over seconds, and probes taken back to back see one phase.
SETUP_PROBES = 12


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: exit once set-up is done (used to time set-up in a fresh process)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import hetcache from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import hetcache

    if not os.path.abspath(hetcache.__file__).startswith(src + os.sep):
        raise ImportError(f"hetcache was imported from {hetcache.__file__}, not {src}")


def set_up(argv=None):
    """Everything before the timed body: arguments, imports, workload inputs."""
    args = parse_args(argv)
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    return args, workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)


def time_setup(args):
    """Seconds from starting a fresh interpreter to a ready workload."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.wait(timeout=60)
    if line.strip() != b"ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
    return elapsed


def timed_round(workload, index):
    """One round under the host-speed probe: (result, ops, failed, raw s, normalised s, probe s)."""
    with HostProbe() as probe:
        start = time.perf_counter()
        payload, ops, bad = workload.run_round(index)
        wall = time.perf_counter() - start
    return payload, ops, bad, wall, probe.normalise(wall), probe.probe_s()


def run_rounds(workload, seconds, tracer=None, setup=None):
    """Timed rounds until ``seconds`` have passed (at least one).

    Garbage is collected before each round, untimed, so every round starts
    from the same collector state. Each round's time is kept raw and
    host-normalised (see hostspeed.py). With a tracer, every round is run
    twice on the same inputs, untraced then traced, so the two times
    differ only by the tracing. With ``setup``, a callable that times one
    set-up, ``SETUP_PROBES`` set-ups are timed between rounds, evenly over
    the run; their time does not count against ``seconds``.
    """
    from tracing import layer_metrics, write_spans

    rounds = {"raw_s": [], "norm_s": [], "probe_s": [], "traced_norm_s": [], "setup_s": []}
    layers = []
    attempted = failed = 0
    begin = time.perf_counter()
    setup_time = 0.0
    index = 0
    while index == 0 or time.perf_counter() - begin - setup_time < seconds:
        if setup is not None:
            share = (time.perf_counter() - begin - setup_time) / seconds if seconds else 1.0
            while len(rounds["setup_s"]) < min(SETUP_PROBES, int(SETUP_PROBES * share) + 1):
                start = time.perf_counter()
                rounds["setup_s"].append(setup())
                setup_time += time.perf_counter() - start
        gc.collect()
        payload, ops, bad, wall, norm, probe_s = timed_round(workload, index)
        rounds["raw_s"].append(wall)
        rounds["norm_s"].append(norm)
        rounds["probe_s"].append(probe_s)
        workload.keep(payload)
        attempted += ops
        failed += bad
        if tracer is not None:
            tracer.reset()
            gc.collect()
            with tracer:
                _, ops, bad, _, norm, _ = timed_round(workload, index)
            rounds["traced_norm_s"].append(norm)
            attempted += ops
            failed += bad
            layers.append(layer_metrics(tracer))
            if index == 0:
                write_spans(tracer, os.path.join(
                    OUT_DIR, f"trace-{workload.name}-seed{workload.seed}.tsv"))
        index += 1
    while setup is not None and len(rounds["setup_s"]) < SETUP_PROBES:
        rounds["setup_s"].append(setup())
    return rounds, layers, attempted, failed


def per_layer(layers, rounds):
    """Counts from the first traced round; times as medians over rounds."""
    out = {}
    for name, first in layers[0].items():
        if name.endswith(("_s", ".s")):
            out[name] = statistics.median(layer[name] for layer in layers)
        else:
            out[name] = first
    out["trace.overhead_s"] = (statistics.median(rounds["traced_norm_s"])
                               - statistics.median(rounds["norm_s"]))
    out["host.raw_wall_s"] = statistics.median(rounds["raw_s"])
    out["host.probe_s"] = statistics.median(rounds["probe_s"])
    return out


def main(argv=None):
    try:
        args, workload = set_up(argv)
    except ImportError as exc:
        print(f"perfbench: cannot import hetcache from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    workload.warm_up()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    setup = None if args.trace else (lambda: time_setup(args))
    rounds, layers, attempted, failed = run_rounds(workload, args.seconds, tracer, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(OUT_DIR, f"rounds-{workload.name}-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(rounds, fh)
    failures = workload.check()
    for message in failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    if args.trace:
        units = metric_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in per_layer(layers, rounds).items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(rounds["setup_s"]), "unit": "s"},
            "norm_wall_s": {"value": statistics.median(rounds["norm_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def metric_units():
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
