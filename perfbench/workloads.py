"""The two benchmark workloads, their seeded inputs and their output checks.

Each workload is one closed-loop client in one process: the next call starts
when the previous one has returned.  ``prepare`` makes the inputs from the
seed (set-up, untimed); ``execute`` is one timed pass, which drives the
program through ``nonmatching.cli.main`` and the public API and checks every
output against ``expected.json``.  An item fails on a wrong verdict, a raised
exception, a CLI exit other than 0, or a cold/warm result digest mismatch.

The program is always reached through module attributes (``nm.cli.main``,
``nm.reduced_betti``) so that the traced pass sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import traceback
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

WORKLOADS = ("complexes", "suites")
SUITES = ("figure1", "vanishing-k2", "bipartite-k2", "leray-k2", "concentration",
          "morse-bounds", "gallai-edmonds", "rainbow", "combinator-laws")
FIELDS = ("gf2", "gf65521", "q")
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Input sizes.  "full" is what the benchmark measures; "tiny" exercises the
# same code paths in well under a second, for the harness tests.
SCALES = {
    "full": {
        # (graph, k, fields) through `nonmatching homology`
        "homology": [("k6_subdivided", 3, FIELDS), ("k44", 3, FIELDS), ("k7", 3, ("gf2",))],
        # seeded subgraphs of a host through the public API, over all fields
        "subgraphs": {"host": "k7", "edges": 14, "count": 2, "k": 3},
        # (graph, k, d0, sample size or None for exhaustive) through `nonmatching leray --near`
        "leray": [("k6_subdivided", 3, 5, None), ("k44", 3, 3, None), ("k7", 3, 5, 300)],
        "suites": SUITES,
    },
    "tiny": {
        "homology": [("k4", 2, FIELDS), ("k33", 2, FIELDS), ("k5", 2, ("gf2",))],
        "subgraphs": {"host": "k5", "edges": 7, "count": 1, "k": 2},
        "leray": [("k5", 2, 2, None), ("k23", 2, 1, None), ("k5", 2, 2, 5)],
        "suites": ("concentration", "leray-k2"),
    },
}


def _complete(n: int) -> tuple[str, list]:
    return f"{n}", list(combinations(range(n), 2))


def _bipartite(a: int, b: int) -> tuple[str, list]:
    return f"{a + b} = {a} {b}", [(x, y) for x in range(a) for y in range(a, a + b)]


def _k6_subdivided() -> tuple[str, list]:
    # K6 on 0..5 with the edge (0, 1) subdivided through vertex 6
    edges = [e for e in combinations(range(6), 2) if e != (0, 1)] + [(0, 6), (1, 6)]
    return "7", sorted(edges)


GRAPHS = {
    "k4": lambda: _complete(4),
    "k5": lambda: _complete(5),
    "k7": lambda: _complete(7),
    "k23": lambda: _bipartite(2, 3),
    "k33": lambda: _bipartite(3, 3),
    "k44": lambda: _bipartite(4, 4),
    "k6_subdivided": _k6_subdivided,
}


def graph_text(name: str) -> str:
    head, edges = GRAPHS[name]()
    return head + "\n" + "".join(f"{u} {v}\n" for u, v in edges)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


@dataclass
class Tally:
    """Items attempted and failed in one pass, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    audits: int = 0
    errors: list[str] = field(default_factory=list)

    def item(self, ok: bool, count: int = 1, why: str = "") -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.errors.append(why)


def _cli(nm, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = nm.cli.main(argv)
    return rc, out.getvalue()


def _nonzero(betti: dict) -> dict[str, int]:
    return {str(d): b for d, b in sorted(betti.items(), key=lambda kv: int(kv[0])) if b}


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, workdir: Path, scale: str = "full") -> dict:
    """Write the pass's input files under ``workdir`` and return the plan."""
    sizes = SCALES[scale]
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def graph_file(name: str) -> str:
        path = workdir / f"{name}.txt"
        if not path.exists():
            path.write_text(graph_text(name))
        return str(path)

    plan: dict = {"cache": str(workdir / "cache")}
    if workload == "complexes":
        plan["homology"] = [(graph_file(g), f"{g}_k{k}", k, f)
                            for g, k, fields in sizes["homology"] for f in fields]
        sub = sizes["subgraphs"]
        head, host_edges = GRAPHS[sub["host"]]()
        plan["subgraphs"] = {
            "n": int(head), "k": sub["k"], "d0": 3 * sub["k"] - 3,
            "edge_sets": [sorted(rng.sample(host_edges, sub["edges"]))
                          for _ in range(sub["count"])],
        }
        plan["leray"] = [(graph_file(g), f"{g}_k{k}_d{d0}", k, d0, sample, rng.randrange(1 << 30))
                         for g, k, d0, sample in sizes["leray"]]
    elif workload == "suites":
        plan["suites"] = list(sizes["suites"])
        plan["sweep_seed"] = seed
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


# ---------------------------------------------------------------------------
# One timed pass
# ---------------------------------------------------------------------------


def execute(nm, workload: str, plan: dict, expected: dict) -> Tally:
    tally = Tally()
    {"complexes": _complexes, "suites": _suites}[workload](nm, plan, expected, tally)
    return tally


def _guarded(tally: Tally, count: int, what: str, fn) -> None:
    """Run one check; an exception fails its items and the pass goes on."""
    try:
        fn()
    except Exception:  # noqa: BLE001 - a crash is a failed item, not a lost pass
        tally.item(False, count, f"{what}: {traceback.format_exc(limit=3)}")


def _complexes(nm, plan, expected, tally: Tally) -> None:
    """Betti tables first, then near-Leray link checks on the same complexes."""
    _betti(nm, plan, expected, tally)
    _leray(nm, plan, expected, tally)


def _betti(nm, plan, expected, tally: Tally) -> None:
    tables = expected["betti"]
    for path, key, k, fld in plan["homology"]:
        def one(path=path, key=key, k=k, fld=fld):
            rc, out = _cli(nm, ["homology", path, "--k", str(k), "--field", fld,
                                "--format", "json", "--cache-dir", plan["cache"]])
            got = json.loads(out) if rc == 0 else {}
            want = tables[key]
            ok = (rc == 0 and got["faces"] == want["faces"]
                  and _nonzero(got["betti"]) == want["betti"])
            tally.item(ok, why=f"{key} over {fld}: exit {rc}, {got.get('betti')}")
        _guarded(tally, 1, f"{key} over {fld}", one)

    sub = plan["subgraphs"]
    fields = {"gf2": nm.GF2, "gf65521": nm.FieldSpec("GFP", 65521), "q": nm.RATIONAL}
    for i, edges in enumerate(sub["edge_sets"]):
        def one(i=i, edges=edges):
            cx = nm.build_nm_complex(nm.Graph.from_edges(sub["n"], edges), sub["k"])
            got = {f: nm.reduced_betti(cx, spec).betti for f, spec in fields.items()}
            q = got["q"]
            for f, betti in got.items():
                vanishes = all(b == 0 for d, b in betti.items() if d >= sub["d0"])
                # torsion can only raise a finite-field Betti number above Q's
                dominates = all(betti.get(d, 0) >= b for d, b in q.items())
                tally.item(vanishes and dominates,
                           why=f"subgraph {i} over {f}: {_nonzero(betti)} vs Q {_nonzero(q)}")
        _guarded(tally, len(fields), f"subgraph {i}", one)


def _leray(nm, plan, expected, tally: Tally) -> None:
    counts = expected["leray"]
    for path, key, k, d0, sample, seed in plan["leray"]:
        want = sample if sample else counts[key]

        def one(path=path, key=key, k=k, d0=d0, sample=sample, seed=seed, want=want):
            argv = ["leray", path, "--k", str(k), "--d0", str(d0), "--near",
                    "--cache-dir", plan["cache"]]
            if sample:
                argv += ["--sample", str(sample), "--seed", str(seed)]
            rc, out = _cli(nm, argv)
            report = json.loads(out) if rc in (0, 1) else {}
            if report.get("checked") != want or rc != (0 if report["passed"] else 1):
                tally.item(False, want, f"{key}: exit {rc}, checked {report.get('checked')}")
                return
            bad = len(report["violations"])
            tally.item(True, want - bad)
            if bad:
                tally.item(False, bad, f"{key}: {bad} links fail to vanish from {d0}")
        _guarded(tally, want, key, one)


_SUMMARY = re.compile(r"suite (\S+): (\d+) cases, (\d+) passed, (\d+) failed, "
                      r"(\d+) cached, (\d+) audited")
_DIGEST = re.compile(r"result digest ([0-9a-f]{64})")


def _sweep(nm, suite: str, seed: int, cache: str) -> tuple[int, dict]:
    rc, out = _cli(nm, ["sweep", suite, "--seed", str(seed), "--cache-dir", cache])
    m, d = _SUMMARY.search(out), _DIGEST.search(out)
    if m is None or d is None:
        return rc, {}
    cases, _passed, failed, cached, audited = map(int, m.groups()[1:])
    return rc, {"cases": cases, "failed": failed, "cached": cached,
                "audited": audited, "digest": d.group(1)}


def _suites(nm, plan, expected, tally: Tally) -> None:
    """All suites cold into a fresh cache, then all again against it, warm."""
    counts = expected["suites"]
    cache = plan["cache"]  # fresh per pass: nothing is cached at the start
    cold: dict[str, dict] = {}
    for half in ("cold", "warm"):
        for suite in plan["suites"]:
            n = counts[suite]

            def one(suite=suite, n=n, half=half):
                rc, r = _sweep(nm, suite, plan["sweep_seed"], cache)
                if half == "cold":
                    cold[suite] = r
                hits_ok = r.get("cached") == (0 if half == "cold" else n)
                same = half == "cold" or r.get("digest") == cold[suite].get("digest")
                # the sweep exits 1 exactly when some of its cases failed
                rc_ok = rc == (1 if r.get("failed") else 0)
                if not rc_ok or r.get("cases") != n or not hits_ok or not same:
                    tally.item(False, n, f"{half} {suite}: exit {rc}, {r}, cold {cold.get(suite)}")
                    return
                tally.item(True, n - r["failed"])
                if r["failed"]:
                    tally.item(False, r["failed"], f"{half} {suite}: {r['failed']} cases failed")
                tally.audits += r["audited"]
            _guarded(tally, n, f"{half} {suite}", one)
