"""Benchmark entry point: time-to-verified-verdict for nonmatching.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload complexes|suites --seed N \
        --seconds S --trace 0|1

Passes of the workload run back to back, each in a fresh process
(``worker.py``), until the next pass, if it took as long as the longest pass
so far, would end after ``--seconds``.  With ``--trace 0`` the last line of
standard output is one JSON object holding the end-to-end metrics, each the
median over the passes, with the pass times scaled to the host's reference
speed (``speed.py``).  With ``--trace 1`` passes alternate untraced and
traced, and the JSON object holds the per-layer metrics (medians over the
traced passes) and the tracing overhead.  Two ``#`` lines before it give run
metadata and a readable summary that adds ``fail_ratio``, the unscaled times
and the host's speed.  The program is imported from ``src/`` of the checkout; the
run exits with code 2 and prints no result if that is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("scaled_wall_s", "s"), ("scaled_cpu_s", "s"), ("scaled_items_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))
RUN_LIMIT_S = 170.0  # no pass starts a run past its 180 s limit


def spawn_pass(workload: str, seed: int, workdir: Path, trace: bool, scale: str,
               timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return its JSON report."""
    pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, NONMATCHING_CACHE_DIR=str(workdir / "env-cache"),
               PYTHONPATH=os.pathsep.join(pythonpath))
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--scale", scale,
           "--spawned-at", repr(spawned_at)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               scale: str = "full") -> list[dict]:
    start = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    (HERE / ".work").mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / ".work"))
    try:
        while True:
            began = time.monotonic() - start
            # traced runs alternate untraced and traced passes, untraced first,
            # so that the tracing overhead compares passes made side by side
            traced = trace and len(passes) % 2 == 1
            p = spawn_pass(workload, seed, rundir / f"pass{len(passes)}", traced, scale,
                           RUN_LIMIT_S - began)
            passes.append(p)
            now = time.monotonic() - start
            longest = max(longest, now - began)
            if "crashed" in p or now + longest > RUN_LIMIT_S:
                break
            need_traced = trace and not any(q.get("traced") for q in passes)
            if not need_traced and now + longest > seconds:
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return passes


def _scaled(p: dict, key: str) -> float:
    """A pass's time at the host's reference speed (see ``speed.py``)."""
    return p[key] * speed.REFERENCE_S / p["probe_s"]


def summarize(passes: list[dict], trace: bool) -> dict:
    """The result object: medians over passes, and failures over all items.

    ``raw`` holds the medians of the unscaled times and the host's speed
    relative to the reference (above 1 is faster); they are printed, not
    gated.  Set-up time is not scaled: it is mostly imports and file reads,
    which do not follow the probe's speed.
    """
    done = [p for p in passes if "crashed" not in p]
    crashed = len(passes) - len(done)
    attempted = sum(p["attempted"] for p in done) + crashed
    failed = sum(p["failed"] for p in done) + crashed
    plain = [p for p in done if not p["traced"]]
    end_to_end = {
        "scaled_wall_s": statistics.median(_scaled(p, "wall_s") for p in plain),
        "scaled_cpu_s": statistics.median(_scaled(p, "cpu_s") for p in plain),
        "scaled_items_per_s": statistics.median(p["attempted"] / _scaled(p, "wall_s")
                                                for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "host_speed": statistics.median(speed.REFERENCE_S / p["probe_s"] for p in plain),
    }
    units = dict(END_TO_END)
    if trace:
        traced = [p for p in done if p["traced"]]
        units = dict(tracer.per_layer_metrics())
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = values["trace.wall_s"] - raw["wall_s"]
    else:
        values = end_to_end
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "end_to_end": end_to_end,
        "raw": raw,
        "errors": [p["crashed"] for p in passes if "crashed" in p]
        + [e for p in done for e in p["errors"]][:5],
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Recorded beside the metrics, never gated."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nonmatching" / "__init__.py").is_file():
        print(f"error: no nonmatching sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    done = [p for p in passes if "crashed" not in p]
    traced = [p["traced"] for p in done]
    if False not in traced or (args.trace and True not in traced):
        print("error: a pass crashed before any could be measured:\n" + passes[-1]["crashed"],
              file=sys.stderr)
        return 1
    result = summarize(passes, bool(args.trace))
    summary = {name: f"{result['end_to_end'][name]:.4g} {unit}" for name, unit in END_TO_END}
    summary["fail_ratio"] = f"{result['failed'] / result['attempted']:.4g}"
    summary.update({name: f"{value:.4g}" for name, value in result["raw"].items()})
    summary["pass_wall_s"] = [round(p["wall_s"], 3) for p in done]
    print("# meta " + json.dumps(metadata(args.workload, args.seed, args.seconds,
                                          bool(args.trace))))
    print("# summary " + json.dumps(summary))
    for err in result["errors"]:
        print("# error " + err.replace("\n", " | "), file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
