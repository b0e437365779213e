"""Command-line front end.

Subcommands: ``homology`` (Betti table of a non-matching complex), ``leray``
(link or induced-subcomplex vanishing checks), ``morse-verify`` (build one
family matching and validate it), ``rainbow`` (theorem verification and
tightness search), and ``sweep`` (the registered verification suites, with
caching and job-level parallelism).

Exit codes: 0 pass, 1 violation or failure, 2 usage or parse error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import random
import sys
import traceback
from pathlib import Path

from . import sweeps
from .cache import (CAPS_VERSION, ResultCache, RunManifest, canonical_json, code_fingerprint,
                    digest_of, now)
from .complexes import build_nm_complex
from .errors import CapExceededError, FormatError, HypothesisError, NonmatchingError
from .graphs import DEFAULT_CANONICAL_VERTEX_CAP, DEFAULT_FACE_CAP, automorphisms, load_graph
from .homology import BettiTable, check_leray, check_near_leray, parse_field, reduced_betti
from .rainbow import is_tightness_witness, parse_instance, search_tightness, verify_theorem

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _vanishing_bound(g, k: int) -> int:
    return 2 * k - 2 if g.bipartition is not None else 3 * k - 3


def cmd_homology(args) -> int:
    g = load_graph(args.graph_file)
    field = parse_field(args.field)
    cache = ResultCache(args.cache_dir)
    # NM_k(G) is determined by the edge list and k; a hit builds nothing
    key = digest_of(
        {"op": "homology", "edges": g.sorted_edges(), "k": args.k, "field": field.label(),
         "code": code_fingerprint()}
    )
    cached = None if args.no_cache else cache.get(key)
    if cached is not None:
        betti = {int(d): b for d, b in cached["betti"].items()}
        faces = cached["faces"]
    else:
        cx = build_nm_complex(g, args.k, args.cap)
        betti = reduced_betti(cx, field, args.cap).betti
        faces = cx.face_count
        cache.put(key, {"betti": {str(d): b for d, b in betti.items()}, "faces": faces})
    bound = _vanishing_bound(g, args.k)
    if args.format == "csv":
        print(BettiTable(field, betti).to_csv(), end="")
        print(f"# vanishing guaranteed from dimension {bound}")
    else:
        print(
            json.dumps(
                {
                    "field": field.label(),
                    "k": args.k,
                    "betti": {str(d): betti[d] for d in sorted(betti)},
                    "vanishing_bound": bound,
                    "faces": faces,
                },
                sort_keys=True,
            )
        )
    return EXIT_PASS


def cmd_leray(args) -> int:
    g = load_graph(args.graph_file)
    field = parse_field(args.field)
    cx = build_nm_complex(g, args.k, args.cap)
    # one link per Aut(G)-orbit on the exhaustive checks when G has a
    # non-trivial automorphism; a sample stays per face, since each sampled
    # face would pay an orbit of |Aut(G)| images
    symmetry = None
    if not (args.sample or args.induced) and g.vertex_count <= DEFAULT_CANONICAL_VERTEX_CAP:
        symmetry = automorphisms(g)
        if len(symmetry) == 1:
            symmetry = None
    if args.near:
        policy = "SAMPLED" if args.sample else "EXHAUSTIVE"
        report = check_near_leray(cx, args.d0, field, policy, sample_count=args.sample or 0,
                                  seed=args.seed, cap=args.cap, symmetry=symmetry)
    elif args.induced:
        report = check_leray(cx, args.d0, field, "INDUCED", cap=args.cap)
    else:
        report = check_leray(cx, args.d0, field, "LINKS", cap=args.cap, symmetry=symmetry)
    print(report.to_json())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_morse_verify(args) -> int:
    with open(args.family, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    kind = spec.get("kind")
    params = {
        "kind": kind,
        "h": spec.get("h", []),
        "vertices": spec.get("vertices", []),
        "x_side": spec.get("x_side", []),
        "y_side": spec.get("y_side", []),
        "z_subset": spec.get("z_subset", []),
        "k": spec.get("k", 0),
    }
    details = sweeps.run_morse_family(params)
    if details.get("empty_family"):
        print(json.dumps({"verdict": "empty-family", "kind": kind}, sort_keys=True))
        return EXIT_PASS
    passed = details.pop("passed")
    details["verdict"] = "pass" if passed else "fail"
    details["kind"] = kind
    print(json.dumps(details, sort_keys=True))
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_rainbow(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "verify":
        inst = parse_instance(Path(args.instance).read_text(encoding="utf-8"), args.k)
        verdict = verify_theorem(inst)
        print(verdict.to_json())
        if verdict.status != "SATISFIED":
            path = cache.write_artifact(
                f"violation-{digest_of(verdict.to_json())}.json", verdict.to_json()
            )
            print(f"# violation artifact written to {path}", file=sys.stderr)
            return EXIT_FAIL
        return EXIT_PASS
    # tightness search
    inst = search_tightness(args.k, not args.general, args.m)
    if inst is None:
        print(json.dumps({"witness": None, "k": args.k, "m": args.m}, sort_keys=True))
        return EXIT_FAIL
    ok = is_tightness_witness(inst)
    witness = [sorted(map(list, es)) for es in inst.edge_sets]
    print(json.dumps({"witness": witness, "k": inst.k, "m": inst.m, "verified": ok}, sort_keys=True))
    return EXIT_PASS if ok else EXIT_FAIL


def _case_key(suite: str, seed: int, spec: sweeps.CaseSpec) -> str:
    return digest_of(
        {
            "suite": suite,
            "case": spec.case_id,
            "runner": spec.runner,
            "params": spec.params,
            "seed": seed,
            "caps": CAPS_VERSION,
            "code": code_fingerprint(),
        }
    )


def _run_spec(spec: sweeps.CaseSpec) -> dict:
    """One case as a result payload; a case that raises is a failed case
    whose details name the exception (its traceback goes to stderr), so the
    rest of the sweep still runs."""
    try:
        result = sweeps.run_case(spec)
    except Exception as exc:
        traceback.print_exc()
        return {"case_id": spec.case_id, "passed": False,
                "details": {"error": f"{type(exc).__name__}: {exc}"}}
    return {"case_id": result.case_id, "passed": result.passed, "details": result.details}


def cmd_sweep(args) -> int:
    try:
        specs = sweeps.expand_suite(args.suite, args.seed)
    except KeyError:
        print(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(sweeps.SUITES))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    cache = ResultCache(args.cache_dir)
    results: dict[str, dict] = {}
    keys = {spec.case_id: _case_key(args.suite, args.seed, spec) for spec in specs}
    hits: list[sweeps.CaseSpec] = []
    todo: list[sweeps.CaseSpec] = []
    for spec in specs:
        cached = None if args.no_cache else cache.get(keys[spec.case_id])
        if cached is not None:
            results[spec.case_id] = cached
            hits.append(spec)
        else:
            todo.append(spec)
    if todo:
        # no more workers than cases to run or CPUs to run them on
        workers = min(args.jobs, len(todo), os.cpu_count() or 1)
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                for spec, payload in zip(todo, pool.map(_run_spec, todo)):
                    results[spec.case_id] = payload
        else:
            for spec in todo:
                results[spec.case_id] = _run_spec(spec)
        for spec in todo:
            if "error" not in results[spec.case_id]["details"]:  # a crash is not a result
                cache.put(keys[spec.case_id], results[spec.case_id])

    # audit a seeded 5% sample of cache hits against fresh recomputation
    audited = 0
    if hits and not args.no_cache:
        rng = random.Random(args.seed ^ 0x5EED)
        sample = [s for s in hits if rng.random() < 0.05]
        for spec in sample:
            fresh = _run_spec(spec)
            audited += 1
            if canonical_json(fresh) != canonical_json(results[spec.case_id]):
                print(f"CACHE MISMATCH {spec.case_id}", file=sys.stderr)
                return EXIT_FAIL

    ordered = [results[s.case_id] for s in specs]
    result_digest = digest_of(ordered)
    manifest = RunManifest(
        command=f"sweep {args.suite}",
        parameters={"suite": args.suite, "jobs": args.jobs},
        seed=args.seed,
        caps=CAPS_VERSION,
        timestamp=now(),
        result_digest=result_digest,
        unreadable=cache.unreadable,
    )
    cache.write_manifest(manifest)

    failures = [r for r in ordered if not r["passed"]]
    print(f"suite {args.suite}: {len(ordered)} cases, {len(ordered) - len(failures)} passed, "
          f"{len(failures)} failed, {len(hits)} cached, {audited} audited, {cache.unreadable} unreadable")
    print(f"result digest {result_digest}")
    for r in failures:
        print(f"FAIL {r['case_id']}: {json.dumps(r['details'], sort_keys=True)[:200]}")
    return EXIT_PASS if not failures else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
    ap = argparse.ArgumentParser(prog="nonmatching")
    ap.add_argument("--cache-dir", default=None, help="override the result cache directory")
    # accepted after the subcommand too; SUPPRESS keeps the pre-subcommand
    # value from being clobbered by a default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS)
    # the face cap of the complex commands, raised for one run
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=DEFAULT_FACE_CAP,
                        help=f"most faces the complex may have (default {DEFAULT_FACE_CAP})")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[common, capped],
                       help="Betti table of a non-matching complex")
    p.add_argument("graph_file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--field", default="gf2")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("leray", parents=[common, capped], help="vanishing checks for links or induced subcomplexes")
    p.add_argument("graph_file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--near", action="store_true", help="non-empty faces only")
    p.add_argument("--induced", action="store_true", help="all induced subcomplexes (not with --near)")
    p.add_argument("--sample", type=int, default=0, help="sample this many faces (with --near)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="gf2")
    p.set_defaults(fn=cmd_leray)

    p = sub.add_parser("morse-verify", parents=[common], help="build and validate one family matching")
    p.add_argument("--family", required=True, help="JSON family description")
    p.set_defaults(fn=cmd_morse_verify)

    p = sub.add_parser("rainbow", parents=[common], help="rainbow matching verification")
    p.add_argument("action", choices=("verify", "tightness"))
    p.add_argument("instance", nargs="?", help="instance file for verify")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--general", action="store_true", help="search general hosts")
    p.set_defaults(fn=cmd_rainbow)

    p = sub.add_parser("sweep", parents=[common], help="run a registered verification suite")
    p.add_argument("suite")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "rainbow":
        if args.action == "verify" and not args.instance:
            ap.error("rainbow verify needs an instance file")
        if args.action == "tightness" and args.k is None:
            ap.error("rainbow tightness needs --k")
    if args.command == "leray":
        if args.sample and not args.near:
            ap.error("leray --sample needs --near")
        if args.induced and args.near:
            ap.error("leray --induced and --near exclude each other")
    if args.command == "sweep" and args.jobs < 1:
        ap.error("sweep --jobs must be at least 1")
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (FormatError, HypothesisError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonmatchingError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
