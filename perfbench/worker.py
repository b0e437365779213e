"""One benchmark pass in a fresh process; prints one JSON line.

``run.py`` starts this script once per pass, so every pass pays what a CLI
user pays on every run: interpreter start, ``import nonmatching`` (numpy and
scipy), and empty module-level memos such as ``sweeps._GE_CONTEXTS``.
Set-up time runs from the moment the parent spawned the process to the start
of the timed pass; it covers the import and the input generation.  Untraced
passes run under ``speed.SpeedProbe``; their ``wall_s`` and ``cpu_s`` leave
the probe's own cost out, and ``probe_s`` is its mean kernel time.

Usage: python3 worker.py --workload W --seed N --workdir DIR --spawned-at T
       [--trace] [--scale full|tiny]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload: str, seed: int, workdir: Path, spawned_at: float,
             trace: bool, scale: str = "full") -> dict:
    import nonmatching as nm
    import nonmatching.cli  # noqa: F401 - nm.cli must be bound for the workloads

    import speed
    import tracer

    expected = workloads.load_expected()
    plan = workloads.prepare(workload, seed, workdir, scale)
    rec = tracer.Recorder()
    # traced passes give no end-to-end metrics, and the probe's ticks would
    # land in their spans, so they run without it
    probe = speed.SpeedProbe()
    setup_s = time.monotonic() - spawned_at
    with tracer.traced(rec) if trace else probe:
        spent_wall, spent_cpu = probe.spent_wall, probe.spent_cpu
        cpu0, t0 = _cpu_s(), time.perf_counter()
        tally = workloads.execute(nm, workload, plan, expected)
        wall_s = time.perf_counter() - t0 - (probe.spent_wall - spent_wall)
        cpu_s = _cpu_s() - cpu0 - (probe.spent_cpu - spent_cpu)
    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:5],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traced": trace,
        "probe_s": None if trace else probe.mean_s(),
    }
    if trace:
        out["layers"] = tracer.layer_values(rec, wall_s, {"cache.audits": tally.audits})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.workdir, args.spawned_at,
                      args.trace, args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
