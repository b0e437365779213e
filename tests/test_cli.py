"""Command-line front end: commands, formats, exit codes, caching."""

import json
import subprocess
import sys
import tracemalloc

import pytest

from nonmatching.cli import main
from nonmatching.graphs import Graph, format_graph, subdivided_complete_graph


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(format_graph(g))
    return str(p)


def run_cli(capsys, cache_dir, *argv):
    code = main(["--cache-dir", str(cache_dir), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHomologyCommand:
    def test_k4_json(self, tmp_path, capsys, cache_dir):
        path = write_graph(tmp_path, Graph.complete(4))
        code, out, _ = run_cli(capsys, cache_dir, "homology", path, "--k", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["betti"]["2"] == 1 and payload["vanishing_bound"] == 3

    def test_figure_graph(self, tmp_path, capsys, cache_dir):
        path = write_graph(tmp_path, subdivided_complete_graph(6))
        code, out, _ = run_cli(capsys, cache_dir, "homology", path, "--k", "3",
                               "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["betti"]["4"] > 0 and payload["betti"]["5"] > 0
        assert all(payload["betti"][str(d)] == 0 for d in range(6, 10))

    def test_edgeless_csv(self, tmp_path, capsys, cache_dir):
        # the complex of an edgeless graph is the one-face complex {empty}:
        # every dimension from 0 up vanishes (dimension -1 alone reports 1)
        path = write_graph(tmp_path, Graph.empty(3))
        code, out, _ = run_cli(capsys, cache_dir, "homology", path, "--k", "2")
        assert code == 0 and out.startswith("dim,betti")
        rows = [ln for ln in out.splitlines() if "," in ln and not ln.startswith("dim")]
        assert all(int(r.split(",")[1]) == 0 for r in rows if int(r.split(",")[0]) >= 0)

    def test_bipartite_bound_annotated(self, tmp_path, capsys, cache_dir):
        path = write_graph(tmp_path, Graph.complete_bipartite(2, 2))
        code, out, _ = run_cli(capsys, cache_dir, "homology", path, "--k", "2",
                               "--format", "json")
        assert json.loads(out)["vanishing_bound"] == 2

    def test_parse_error_exit_2(self, tmp_path, capsys, cache_dir):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        code, _, err = run_cli(capsys, cache_dir, "homology", str(bad), "--k", "2")
        assert code == 2 and err

    def test_cap_exit_3(self, tmp_path, capsys, cache_dir):
        # NM_3(K9) has 1,253,680 faces, over the 2^20 face cap; the walk
        # refuses it as soon as the faces found pass the cap
        path = write_graph(tmp_path, Graph.complete(9))
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, cache_dir, "homology", path, "--k", "3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert err == ("resource cap exceeded: NM_3 has more than 1048576 faces (the cap), "
                       "passed at size 9\n")
        assert peak < 200 << 20

    def test_cap_option_raises_the_cap(self, tmp_path, capsys, cache_dir):
        # the same complex with the cap raised for the run, over GF(2) and
        # GF(65521); its one nonzero reduced Betti number is beta_5 = 784
        path = write_graph(tmp_path, Graph.complete(9))
        for field in ("gf2", "gf65521"):
            code, out, _ = run_cli(capsys, cache_dir, "homology", path, "--k", "3", "--field", field,
                                   "--format", "json", "--no-cache", "--cap", str(1 << 21))
            payload = json.loads(out)
            assert code == 0 and payload["faces"] == 1253680
            assert {d: b for d, b in payload["betti"].items() if b} == {"5": 784}

    def test_cache_hit_identical(self, tmp_path, capsys, cache_dir):
        path = write_graph(tmp_path, Graph.complete(4))
        _, out1, _ = run_cli(capsys, cache_dir, "homology", path, "--k", "2",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, cache_dir, "homology", path, "--k", "2",
                             "--format", "json")
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_cache_hit_builds_no_complex(self, tmp_path, capsys, cache_dir, monkeypatch, fmt):
        # a warm call answers from the cache alone, faces included
        import nonmatching.cli as cli_mod

        path = write_graph(tmp_path, Graph.complete(5))
        _, cold, _ = run_cli(capsys, cache_dir, "homology", path, "--k", "2", "--format", fmt)

        def no_build(*args, **kwargs):
            raise AssertionError("a cache hit built the complex")

        monkeypatch.setattr(cli_mod, "build_nm_complex", no_build)
        code, warm, _ = run_cli(capsys, cache_dir, "homology", path, "--k", "2", "--format", fmt)
        assert code == 0 and warm == cold
        if fmt == "json":
            assert json.loads(warm)["faces"] == 76  # NM_2(K5): the empty graph, edges, stars, triangles
        with pytest.raises(AssertionError, match="built the complex"):
            run_cli(capsys, cache_dir, "homology", path, "--k", "2", "--format", fmt, "--no-cache")

    def test_cache_keyed_by_edges_k_and_field(self, tmp_path, capsys, cache_dir):
        # one homology entry per edge list, k and field: a change in any one
        # misses, a repeat hits, and each cached answer is the fresh one
        runs = [(Graph.complete(4), "2", "gf2"), (Graph.complete(4), "3", "gf2"),
                (Graph.cycle(4), "2", "gf2"), (Graph.complete(4), "2", "q")]
        paths = [write_graph(tmp_path, g, f"g{i}.txt") for i, (g, _, _) in enumerate(runs)]
        fresh = [run_cli(capsys, cache_dir, "homology", path, "--k", k, "--field", field,
                         "--format", "json", "--no-cache")[1]
                 for path, (_, k, field) in zip(paths, runs)]
        assert len(set(fresh)) == len(runs)
        assert len(list(cache_dir.glob("*.json"))) == len(runs)
        for path, (_, k, field), want in zip(paths, runs, fresh):
            _, out, _ = run_cli(capsys, cache_dir, "homology", path, "--k", k, "--field", field,
                                "--format", "json")
            assert out == want
        assert len(list(cache_dir.glob("*.json"))) == len(runs)


class TestLerayCommand:
    def test_near_pass(self, tmp_path, capsys, cache_dir):
        path = write_graph(tmp_path, Graph.complete(4))
        code, out, _ = run_cli(capsys, cache_dir, "leray", path, "--k", "2",
                               "--d0", "2", "--near")
        assert code == 0 and json.loads(out)["passed"]

    def test_near_bipartite(self, tmp_path, capsys, cache_dir):
        path = write_graph(tmp_path, Graph.complete_bipartite(2, 3))
        code, out, _ = run_cli(capsys, cache_dir, "leray", path, "--k", "2",
                               "--d0", "1", "--near")
        assert code == 0

    def test_plain_vanishing_fails_below_bound(self, tmp_path, capsys, cache_dir):
        path = write_graph(tmp_path, subdivided_complete_graph(6))
        code, out, _ = run_cli(capsys, cache_dir, "leray", path, "--k", "3", "--d0", "5")
        assert code == 1
        payload = json.loads(out)
        assert not payload["passed"] and payload["violations"]

    @pytest.mark.parametrize("flags", [("--near",), (), ("--induced",)])
    def test_cap_option(self, tmp_path, capsys, cache_dir, flags):
        # NM_2(K4) has 27 faces: a cap one below refuses the walk in every
        # mode, and a cap of 27 admits it, as the default does
        path = write_graph(tmp_path, Graph.complete(4))
        argv = ("leray", path, "--k", "2", "--d0", "3", *flags)
        code, _, err = run_cli(capsys, cache_dir, *argv, "--cap", "26")
        assert code == 3 and "NM_2 has more than 26 faces (the cap)" in err
        assert run_cli(capsys, cache_dir, *argv, "--cap", "27")[0] == run_cli(capsys, cache_dir, *argv)[0] == 0

    def test_sampled(self, tmp_path, capsys, cache_dir):
        path = write_graph(tmp_path, Graph.complete(5))
        code, out, _ = run_cli(capsys, cache_dir, "leray", path, "--k", "2",
                               "--d0", "2", "--near", "--sample", "5", "--seed", "1")
        assert code == 0 and json.loads(out)["checked"] == json.loads(out)["ranked"] == 5

    @pytest.mark.parametrize("flags, checked, ranked", [
        (("--near",), 7864, 364), ((), 7865, 365), (("--near", "--sample", "40"), 40, 40)])
    def test_exhaustive_checks_rank_one_link_per_orbit(self, tmp_path, capsys, cache_dir,
                                                       flags, checked, ranked):
        # subdivided K6 has 48 automorphisms and its NM_3 364 orbits of
        # non-empty faces; a sample is checked face by face
        path = write_graph(tmp_path, subdivided_complete_graph(6))
        _, out, _ = run_cli(capsys, cache_dir, "leray", path, "--k", "3", "--d0", "5", *flags)
        payload = json.loads(out)
        assert (payload["checked"], payload["ranked"]) == (checked, ranked)

    @pytest.mark.parametrize("edges, ranked", [
        # no automorphism but the identity: every link ranked
        ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6), (2, 4),
          (3, 4), (3, 6), (4, 5)], 2501),
        # two automorphisms: the 5,230 faces fall into 2,651 orbits
        ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 4), (2, 3), (2, 4),
          (3, 4), (3, 5), (3, 6), (4, 6), (5, 6)], 2651)])
    def test_orbits_only_for_a_nontrivial_group(self, tmp_path, capsys, cache_dir, edges,
                                                 ranked, monkeypatch):
        import nonmatching.homology as homology_mod

        covers = []
        real = homology_mod._orbit_cover
        monkeypatch.setattr(homology_mod, "_orbit_cover",
                            lambda *a: covers.append(len(a[2])) or real(*a))
        path = write_graph(tmp_path, Graph.from_edges(7, edges))
        _, out, _ = run_cli(capsys, cache_dir, "leray", path, "--k", "3", "--d0", "5", "--near")
        payload = json.loads(out)
        assert payload["passed"] and payload["ranked"] == ranked
        assert covers == ([] if ranked == payload["checked"] else [2])

    @pytest.mark.parametrize("flags", [("--sample", "5"), ("--induced", "--near")])
    def test_ignored_flags_are_usage_errors(self, tmp_path, capsys, cache_dir, flags):
        # --sample applies only to --near, and --near and --induced are two
        # different checks; neither combination may run some other check
        path = write_graph(tmp_path, Graph.complete(4))
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, cache_dir, "leray", path, "--k", "2", "--d0", "2", *flags)
        assert exc.value.code == 2
        assert "--near" in capsys.readouterr().err


class TestMorseVerifyCommand:
    def test_pm(self, tmp_path, capsys, cache_dir):
        spec = tmp_path / "fam.json"
        spec.write_text(json.dumps({"kind": "PM", "vertices": [0, 1, 2, 3], "h": []}))
        code, out, _ = run_cli(capsys, cache_dir, "morse-verify", "--family", str(spec))
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "pass"
        assert payload["valid"] and payload["acyclic"] and payload["bound_holds"]

    def test_fc_singleton(self, tmp_path, capsys, cache_dir):
        spec = tmp_path / "fam.json"
        spec.write_text(json.dumps({"kind": "FC", "vertices": [0], "h": []}))
        code, out, _ = run_cli(capsys, cache_dir, "morse-verify", "--family", str(spec))
        payload = json.loads(out)
        assert code == 0 and payload["criticals"] == 1 and payload["max_critical_size"] == 0

    def test_bfc_empty_family_verdict(self, tmp_path, capsys, cache_dir):
        spec = tmp_path / "fam.json"
        spec.write_text(json.dumps(
            {"kind": "BFC", "x_side": [0], "y_side": [1], "z_subset": [], "h": []}
        ))
        code, out, _ = run_cli(capsys, cache_dir, "morse-verify", "--family", str(spec))
        assert code == 0 and json.loads(out)["verdict"] == "empty-family"


class TestRainbowCommand:
    def test_verify_satisfied(self, tmp_path, capsys, cache_dir):
        inst = tmp_path / "inst.rbw"
        inst.write_text(
            "4 = 2 2\n0 2\n0 3\n1 2\n1 3\nk = 2\n"
            "SET 0: 0 2, 1 3\nSET 1: 0 3, 1 2\nSET 2: 0 2, 1 3\n"
        )
        code, out, _ = run_cli(capsys, cache_dir, "rainbow", "verify", str(inst))
        assert code == 0 and json.loads(out)["status"] == "SATISFIED"

    def test_verify_malformed_exit_2(self, tmp_path, capsys, cache_dir):
        inst = tmp_path / "bad.rbw"
        inst.write_text("4 = 2 2\n0 2\nk = 2\nSET 0: nope\n")
        code, _, err = run_cli(capsys, cache_dir, "rainbow", "verify", str(inst))
        assert code == 2 and err

    def test_tightness_witness(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "rainbow", "tightness", "--k", "2", "--m", "2")
        payload = json.loads(out)
        assert code == 0 and payload["verified"] and payload["witness"]


class TestSweepCommand:
    def test_unknown_suite_exit_2(self, capsys, cache_dir):
        code, _, err = run_cli(capsys, cache_dir, "sweep", "nope")
        assert code == 2 and "available" in err

    def test_small_suite_runs_and_caches(self, capsys, cache_dir):
        code1, out1, _ = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert code1 == 0 and "4 passed" in out1
        code2, out2, _ = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert code2 == 0 and "cached" in out2
        d1 = [l for l in out1.splitlines() if l.startswith("result digest")]
        d2 = [l for l in out2.splitlines() if l.startswith("result digest")]
        assert d1 == d2

    def test_two_jobs_match_one_job(self, capsys, tmp_path, monkeypatch):
        # the process-pool branch: same output, digest included, and the same
        # case cache files, byte for byte, as the serial run
        import concurrent.futures

        pools, real_pool = [], concurrent.futures.ProcessPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda **kw: pools.append(kw) or real_pool(**kw))
        outs, files = [], []
        for jobs in ("1", "2"):
            cache = tmp_path / f"jobs{jobs}"
            code, out, _ = run_cli(capsys, cache, "sweep", "leray-k2", "--jobs", jobs)
            assert code == 0 and "6 passed" in out
            outs.append(out)
            files.append({p.name: p.read_bytes() for p in cache.glob("*.json")
                          if not p.name.startswith("manifest-")})
        assert outs[0] == outs[1]
        assert "result digest ca27157de536544da05fb0ad53b4c1d67a0ff0e4310839161f745498712795e3" in outs[0]
        assert len(files[0]) == 6 and files[0] == files[1]
        assert pools == [{"max_workers": 2}]

    def test_manifest_written(self, capsys, cache_dir):
        run_cli(capsys, cache_dir, "sweep", "concentration")
        manifests = list(cache_dir.glob("manifest-*.json"))
        assert manifests
        payload = json.loads(manifests[0].read_text())
        assert payload["command"] == "sweep concentration"
        assert payload["result_digest"]

    def test_crashing_case_is_a_failed_case(self, capsys, cache_dir, monkeypatch):
        import nonmatching.sweeps as sweeps_mod

        real = sweeps_mod.run_case

        def crash_on_k5(spec):
            if spec.case_id == "conc-K5":
                raise RuntimeError("injected crash")
            return real(spec)

        monkeypatch.setattr(sweeps_mod, "run_case", crash_on_k5)
        code, out, err = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert code == 1 and "Traceback" in err
        assert "3 passed, 1 failed" in out
        assert "FAIL conc-K5:" in out and "RuntimeError: injected crash" in out
        assert [l for l in out.splitlines() if l.startswith("FAIL")] == [
            l for l in out.splitlines() if l.startswith("FAIL conc-K5:")]
        assert list(cache_dir.glob("manifest-*.json"))
        # the crash was not cached: a rerun without it recomputes that case and passes
        monkeypatch.setattr(sweeps_mod, "run_case", real)
        code, out, _ = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert code == 0 and "4 passed" in out and "3 cached" in out


    def test_unreadable_entry_counted_and_recomputed(self, capsys, cache_dir):
        code, cold, _ = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert code == 0 and "0 cached, 0 audited, 0 unreadable" in cold
        entry = sorted(p for p in cache_dir.glob("*.json") if not p.name.startswith("manifest-"))[0]
        entry.write_text("{not json")
        code, warm, _ = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert code == 0 and "3 cached" in warm and "1 unreadable" in warm
        assert warm.splitlines()[1:] == cold.splitlines()[1:]  # the same digest
        manifest = json.loads(next(cache_dir.glob("manifest-*.json")).read_text())
        assert manifest["unreadable"] == 1
        # the recomputed case was cached again
        json.loads(entry.read_text())
        _, again, _ = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert "4 cached" in again and "0 unreadable" in again


class TestCodeFingerprint:
    def test_version_and_module_sources(self):
        import hashlib
        from pathlib import Path

        import nonmatching
        from nonmatching.cache import code_fingerprint

        h = hashlib.sha256()
        for path in sorted(Path(nonmatching.__file__).parent.glob("*.py")):
            source = path.read_bytes()
            h.update(f"{path.name}\0{len(source)}\0".encode() + source)
        assert code_fingerprint() == f"{nonmatching.__version__}+{h.hexdigest()}"

    def test_changed_fingerprint_misses(self, tmp_path, capsys, cache_dir, monkeypatch):
        import nonmatching.cli as cli_mod

        code, out, _ = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert code == 0 and "0 cached" in out
        code, out, _ = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert code == 0 and "4 cached" in out  # two sweeps in one process hit
        path = write_graph(tmp_path, Graph.complete(4))
        run_cli(capsys, cache_dir, "homology", path, "--k", "2")
        entries = len(list(cache_dir.glob("*.json")))
        monkeypatch.setattr(cli_mod, "code_fingerprint", lambda: "0.1.0+other")
        code, out, _ = run_cli(capsys, cache_dir, "sweep", "concentration")
        assert code == 0 and "0 cached" in out
        run_cli(capsys, cache_dir, "homology", path, "--k", "2")
        # four case results and one homology result more, under the new keys
        assert len(list(cache_dir.glob("*.json"))) == entries + 5


class TestResultCache:
    def test_failed_replace_leaves_no_entry(self, tmp_path, monkeypatch):
        import nonmatching.cache as cache_mod

        cache = cache_mod.ResultCache(tmp_path / "c")
        cache.put("kept", {"a": 1})

        def fail(src, dst):
            raise OSError("injected failure")

        monkeypatch.setattr(cache_mod.os, "replace", fail)
        with pytest.raises(OSError):
            cache.put("key", {"b": 2})
        with pytest.raises(OSError):
            cache.put("kept", {"a": 2})
        monkeypatch.undo()
        assert cache.get("key") is None
        assert not (tmp_path / "c" / "key.json").exists()
        assert cache.get("kept") == {"a": 1}
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == ["kept.json"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("2\n0 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nonmatching.cli", "--cache-dir",
             str(tmp_path / "c"), "homology", str(g), "--k", "2", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["betti"]["0"] == 0


class TestCacheEnvVar:
    def test_env_var_cache_dir(self, tmp_path, capsys, monkeypatch):
        import nonmatching.cache as cache_mod

        monkeypatch.setenv(cache_mod.ENV_VAR, str(tmp_path / "envcache"))
        g = tmp_path / "g.txt"
        g.write_text("4\n0 1\n2 3\n")
        code = main(["homology", str(g), "--k", "2", "--format", "json"])
        capsys.readouterr()
        assert code == 0
        assert list((tmp_path / "envcache").glob("*.json"))
