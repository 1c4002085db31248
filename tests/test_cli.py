import argparse
import ast
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import types
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parabolic
from parabolic import action, cli, schreier, verify, words
from parabolic.cli import OUTPUT_DIR_ENV, main
from parabolic.schreier import build_ball, build_mod_q, certified_core, core_exact, export_json
from parabolic.verify import CheckResult, VerificationReport, run_verification
from parabolic.words import Word

_GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "golden")

_FAST = ["--n-max", "5", "--q-max", "5", "--depth", "5", "--sweep-len", "3"]
_TINY = dict(n_max=20, q_max=12, depth=5, sweep_len=5)

_CHECK_IDS = [
    "freeness-sweep",
    "orbit-witnesses",
    "line-loops",
    "core-growth",
    "core-line-points",
    "abelianization",
    "stabilizer-index",
    "rank-bound",
    "schreier-generators",
    "membership-oracle",
]


# ---------------------------------------------------------------- verify


def test_run_verification_all_pass():
    report = run_verification(5, 5, 5, 3)
    assert report.all_passed
    assert [c.id for c in report.checks] == _CHECK_IDS
    assert report.summary() == {"total": 10, "passed": 10, "failed": 0}


def test_run_verification_is_deterministic():
    a = run_verification(5, 5, 5, 3).to_json()
    b = run_verification(5, 5, 5, 3).to_json()
    assert a == b


def test_run_verification_parameter_guards():
    for bad in (
        dict(n_max=0),
        dict(n_max=10_001),
        dict(q_max=1),
        dict(q_max=4097),
        dict(depth=4),
        dict(depth=17),
        dict(sweep_len=0),
        dict(sweep_len=15),
    ):
        with pytest.raises(ValueError):
            run_verification(**{**dict(n_max=2, q_max=2, depth=5, sweep_len=1), **bad})


def test_tiny_report_matches_golden_file():
    with open(os.path.join(_GOLDEN_DIR, "verification_tiny.json"), encoding="utf-8") as fh:
        golden = fh.read()
    report = run_verification(**_TINY)
    assert report.to_json() == golden


def test_run_verification_restores_an_enabled_collector():
    assert gc.isenabled()
    assert run_verification(**_TINY).all_passed
    assert gc.isenabled()


def test_run_verification_leaves_a_disabled_collector_off():
    gc.disable()
    try:
        assert run_verification(**_TINY).all_passed
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_verification_restores_the_collector_when_a_check_raises(monkeypatch):
    paused = []

    def broken(q):
        paused.append(not gc.isenabled())
        raise RuntimeError("synthetic")

    monkeypatch.setattr(verify, "build_mod_q", broken)
    assert gc.isenabled()
    report = run_verification(**_TINY)
    assert gc.isenabled()
    assert paused == [True, True]  # once per check that builds a mod-q graph
    failed = {c.id: c.details for c in report.checks if c.status == "fail"}
    assert failed == {
        "schreier-generators": "RuntimeError: synthetic",
        "membership-oracle": "RuntimeError: synthetic",
    }


def test_run_verification_leaves_no_cyclic_garbage():
    # the run pauses the collector because what it allocates holds no
    # reference cycle; a cycle made by a later check shows up here first
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert run_verification(**_TINY).all_passed
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "producer, readers",
    [
        ("stabilizer_index", {"stabilizer-index", "rank-bound", "schreier-generators"}),
        ("build_ball", {"core-growth", "core-line-points"}),
    ],
)
def test_failing_shared_evidence_fails_its_readers(monkeypatch, producer, readers):
    calls = []

    def broken(arg):
        calls.append(arg)
        raise RuntimeError("synthetic")

    monkeypatch.setattr(verify, producer, broken)
    report = run_verification(5, 5, 5, 3)
    assert [c.id for c in report.checks] == _CHECK_IDS
    failed = {c.id for c in report.checks if c.status == "fail"}
    assert failed == readers
    for c in report.checks:
        if c.id in readers:
            assert c.details == "RuntimeError: synthetic"
    assert len(calls) == 1  # the evidence is computed once, not once per reader


def test_core_growth_fails_when_certified_core_disagrees(monkeypatch):
    real = verify.certified_core

    def short(g, w):
        rep = real(g, w)
        return rep._replace(core_vertices=rep.core_vertices - {min(rep.core_vertices)})

    monkeypatch.setattr(verify, "certified_core", short)
    report = run_verification(5, 5, 6, 3)
    failed = {c.id: c.details for c in report.checks if c.status == "fail"}
    # both checks read the same evidence, so both fail with its message
    assert set(failed) == {"core-growth", "core-line-points"}
    assert failed["core-growth"] == (
        "AssertionError: certified_core finds 3 core vertices at depth 6, the per-depth walk 4"
    )


def test_schreier_generators_fail_on_a_generator_off_the_stabilizer(monkeypatch):
    real = verify.spanning_tree_generators

    def tampered(g):
        # one more letter on the first syllable of the first generator at
        # q = 7: the word is now a letter times a loop, and no letter fixes
        # the origin mod 7
        gens = real(g)
        if g.modulus == 7:
            (c, e), *rest = gens[0].syllables
            first = (c, e + 1 if e > 0 else e - 1)
            gens[0] = Word._from_syllables((first, *rest), len(gens[0]) + 1)
        return gens

    monkeypatch.setattr(verify, "spanning_tree_generators", tampered)
    report = run_verification(2, 12, 5, 2)
    failed = {c.id: c.details for c in report.checks if c.status == "fail"}
    assert set(failed) == {"schreier-generators"}
    assert failed["schreier-generators"].startswith("AssertionError: generator ")
    assert failed["schreier-generators"].endswith(" escapes the stabilizer mod 7")


@pytest.mark.parametrize(
    "path, tampered_word, details",
    [
        ("act", "uV", "U^-1 V at marked point -20"),
        ("loop_check", "uVuV", "witness loop open at marked point -20"),
        ("eval_affine", "uV", "affine map of U^-1 V at marked point -20"),
        ("eval_affine", "uVuV", "affine map of the witness loop moves marked point -20"),
    ],
)
def test_line_loops_fail_when_one_path_is_tampered(monkeypatch, path, tampered_word, details):
    real = getattr(verify, path)

    def tampered(w, *pt):
        # one more V on the left of the word, on this path alone
        return real(Word("V" + w.text) if w.text == tampered_word else w, *pt)

    monkeypatch.setattr(verify, path, tampered)
    report = run_verification(**_TINY)
    failed = {c.id: c.details for c in report.checks if c.status == "fail"}
    assert failed == {"line-loops": f"AssertionError: {details}"}


def test_membership_oracle_audits_the_edges_of_its_graphs(monkeypatch):
    real = verify.build_mod_q

    def tampered(q):
        g = real(q)
        if q == 5:
            g.edges["U"][0] = 0  # U sends the origin to (0, 1), not to itself
        return g

    monkeypatch.setattr(verify, "build_mod_q", tampered)
    # at q_max = 4 schreier-generators builds no graph mod 5
    report = run_verification(2, 4, 5, 2)
    failed = {c.id: c.details for c in report.checks if c.status == "fail"}
    assert failed == {
        "membership-oracle": "AssertionError: edge 0 -U-> 0 disagrees with the action at (0, 0)"
    }


def test_report_json_shape():
    report = run_verification(2, 3, 5, 2)
    obj = json.loads(report.to_json())
    assert obj["schema_version"] == 1
    assert obj["parameters"] == {"n_max": 2, "q_max": 3, "depth": 5, "sweep_len": 2}
    assert len(obj["checks"]) == 10
    for rec in obj["checks"]:
        assert set(rec) == {"id", "claim", "anchor", "status", "details"}
        assert rec["status"] == "pass"
    assert obj["summary"]["failed"] == 0


def test_verify_command_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", *_FAST, "--out", str(out), "--format", "json"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == stdout
    assert json.loads(stdout)["summary"]["passed"] == 10


def test_verify_command_text_format(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", *_FAST, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "10/10 checks passed" in stdout
    assert f"report written to {out}" in stdout
    for check_id in _CHECK_IDS:
        assert f"PASS {check_id}:" in stdout


def test_verify_command_honours_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(["verify", *_FAST]) == 0
    capsys.readouterr()
    written = tmp_path / "verification.json"
    assert written.exists()
    assert json.loads(written.read_text(encoding="utf-8"))["summary"]["failed"] == 0


def test_verify_command_exit_one_on_failure(tmp_path, monkeypatch, capsys):
    failing = VerificationReport(
        parameters={},
        checks=[CheckResult("stub", "claim", "anchor", "fail", "synthetic")],
    )
    monkeypatch.setattr(cli, "run_verification", lambda *a: failing)
    code = main(["verify", "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "FAIL stub" in capsys.readouterr().out


def test_verify_command_rejects_bad_depth(tmp_path, capsys):
    code = main(["verify", "--depth", "17", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag, value", [("--sweep-len", "30"), ("--n-max", "100000")])
def test_verify_command_refuses_over_budget_before_running(tmp_path, capsys, flag, value):
    # a length-30 sweep would check about 4e14 words; the guard answers first
    start = time.monotonic()
    assert main(["verify", flag, value, "--out", str(tmp_path / "r.json")]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv, out",
    [
        (["verify", "--q-max", "4096", "--n-max", "10000", "--out"], "missing/out.json"),
        # bare verify writes to verification.json in the output directory
        (["verify"], "missing/verification.json"),
        (["graph", "--q", "2048", "--format", "json", "--out"], "missing/out.json"),
        (["graph", "--depth", "3", "--out"], "missing/out.json"),
        (["graph", "--q", "512", "--format", "json", "--out"], "dir"),
        (["verify", "--out"], "dir"),
        (["graph", "--q", "512", "--format", "json", "--out"], "file/g.json"),
    ],
    ids=[
        "verify-out",
        "verify-out-dir",
        "graph-q",
        "graph-depth",
        "graph-out-is-a-directory",
        "verify-out-is-a-directory",
        "graph-out-under-a-file",
    ],
)
def test_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, out):
    # the run and the builds raise if called, so the refusal comes first
    def never(*args):
        raise AssertionError("work started before the destination was checked")

    for name in ("run_verification", "build_mod_q", "build_ball"):
        monkeypatch.setattr(cli, name, never)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    made = sorted(tmp_path.rglob("*"))
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "missing"))
    # os.access passes almost every path for root, so none of these may rest on it
    monkeypatch.setattr(os, "access", lambda path, mode: True)
    dest = tmp_path / out
    start = time.monotonic()
    assert main(argv + [str(dest)] if argv[-1] == "--out" else argv) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {dest}") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == made


def test_verify_out_naming_no_file_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # a path with no file name is refused before any check
    def never(*args):
        raise AssertionError("work started before the destination was checked")

    monkeypatch.setattr(cli, "run_verification", never)
    monkeypatch.chdir(tmp_path)
    for out in ("", "missing/"):
        assert main(["verify", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out!r}: it names no file\n"
    assert list(tmp_path.iterdir()) == []


def test_graph_out_naming_no_file_is_refused_before_any_build(tmp_path, monkeypatch, capsys):
    # the empty path too: it is refused, not read as stdout
    def never(*args):
        raise AssertionError("build started before the destination was checked")

    monkeypatch.setattr(cli, "build_mod_q", never)
    monkeypatch.setattr(cli, "build_ball", never)
    monkeypatch.chdir(tmp_path)
    for region in (["--q", "2"], ["--depth", "3"]):
        for out in ("", "missing/"):
            assert main(["graph", *region, "--out", out]) == 2
            assert capsys.readouterr() == ("", f"error: cannot write {out!r}: it names no file\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- one-shot commands


def test_orbit_command_text(capsys):
    assert main(["orbit", "--n", "-1"]) == 0
    out = capsys.readouterr().out
    assert "word = v" in out
    assert "endpoint = (-1, 2)" in out


def test_orbit_command_json(capsys):
    assert main(["orbit", "--n", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"n": 3, "word": "uuuuv", "length": 5, "endpoint": [3, -2], "verified": True}


def test_rank_command(capsys):
    assert main(["rank", "--q", "7"]) == 0
    out = capsys.readouterr().out
    assert "index = 49" in out and "rank = 50" in out and "rank >= 8" in out
    assert main(["rank", "--q", "7", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"q": 7, "index": 49, "rank": 50, "guaranteed_minimum": 8}


def test_abelianization_command(capsys):
    assert main(["abelianization", "--q", "5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"q": 5, "free_rank": 2, "torsion": [2, 2], "min_generators": 4}
    assert main(["abelianization", "--q", "5"]) == 0
    assert "Z^2 x Z/2 x Z/2" in capsys.readouterr().out


def test_member_command(capsys):
    assert main(["member", "--word", "uVuV", "--q", "4"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["member", "--word", "uVuV"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["member", "--word", "U^-1 V U^-1 V", "--q", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"word": "uVuV", "modulus": 2, "member": True}


def test_snf_command(capsys):
    assert main(["snf", "--matrix", "0 2 0 0; 0 0 2 0"]) == 0
    assert capsys.readouterr().out.strip() == "2 2"
    assert main(["snf", "--matrix", "0, 0; 0, 0"]) == 0
    assert capsys.readouterr().out.strip() == "(none)"
    assert main(["snf", "--matrix", "4 0; 0 6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"invariant_factors": [2, 12]}


def test_core_command(capsys):
    assert main(["core", "--q", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "exact" and obj["count"] == 4 and obj["witness"] is None
    assert main(["core", "--depth", "7", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "certified-lower-bound"
    assert obj["count"] == 6 and obj["witness"] == "uVuV"
    assert [0, 1] in obj["vertices"]


def _core_json(g, rep):
    points = [list(g.points[i]) for i in sorted(rep.core_vertices)]
    witness = rep.witness.text if rep.witness else None
    obj = {"kind": rep.kind, "count": len(points), "witness": witness, "vertices": points}
    return json.dumps(obj, indent=2) + "\n"


def test_core_command_json_bytes_match_json_dumps(capsys):
    # core --format json writes its vertex list by hand, in json.dumps' layout
    for q in range(2, 33):
        assert main(["core", "--q", str(q), "--format", "json"]) == 0
        g = build_mod_q(q)
        assert capsys.readouterr().out == _core_json(g, core_exact(g))
    ball = build_ball(6)
    for witness in ("uVuV", "U"):  # U fixes no point, so its core is empty
        assert main(["core", "--depth", "6", "--witness", witness, "--format", "json"]) == 0
        expected = _core_json(ball, certified_core(ball, Word(witness)))
        assert capsys.readouterr().out == expected
    assert '"vertices": []' in expected


def test_core_command_text(capsys):
    assert main(["core", "--depth", "5"]) == 0
    out = capsys.readouterr().out
    assert "count = 4" in out and "(0, 1)" in out


def test_graph_command_json_round_trip(capsys):
    assert main(["graph", "--q", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out == export_json(build_mod_q(3))


def test_graph_command_dot(capsys):
    assert main(["graph", "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph orbital {")
    assert out.count("style=dashed") == 4


def test_graph_command_out_file(tmp_path, capsys):
    target = tmp_path / "g.dot"
    assert main(["graph", "--q", "2", "--out", str(target)]) == 0
    assert "4 vertices written" in capsys.readouterr().out
    assert target.read_text(encoding="utf-8").startswith("digraph orbital {")


# ---------------------------------------------------------------- failure paths


def test_graph_command_needs_exactly_one_region(capsys):
    for command in ("graph", "core"):
        assert main([command, "--q", "2", "--depth", "3"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main([command]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_member_command_rejects_bad_word(capsys):
    assert main(["member", "--word", "UX"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # '²' passes str.isdigit() but int() refuses it
    assert main(["member", "--word", "U^\u00b2"]) == 2
    assert capsys.readouterr().err == "error: malformed exponent (offset 2)\n"


def test_core_command_rejects_bad_witness(capsys):
    assert main(["core", "--depth", "4", "--witness", "W"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # the witness is parsed before the ball of 687,406 vertices is built
    start = time.monotonic()
    assert main(["core", "--depth", "12", "--witness", "W"]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_core_command_refuses_an_identity_witness_before_building(monkeypatch, capsys):
    # "", U^0 and Uu all parse to the identity, which certifies nothing
    def no_ball(depth):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(cli, "build_ball", no_ball)
    for witness in ("Uu", "", "U^0"):
        assert main(["core", "--depth", "13", "--witness", witness]) == 2
        assert capsys.readouterr().err == "error: certified_core needs a nonempty witness word\n"


@pytest.mark.parametrize("witness", ["zz", "", "U^99999999999"])
def test_core_mod_q_refuses_a_bad_witness_before_building(monkeypatch, capsys, witness):
    # the exact core does not read the witness, but a bad one is refused all
    # the same, as with --depth: malformed, the identity, over the letter budget
    def no_graph(q):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(cli, "build_mod_q", no_graph)
    assert main(["core", "--q", "5", "--witness", witness]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_member_command_refuses_word_too_long_to_print(capsys):
    # the JSON answer prints the word; the first has more letters than an
    # index holds, the second one more than the letter budget of 10^7
    for word in ("U^100000000000000000000", "U^5000000 V^5000001"):
        start = time.monotonic()
        assert main(["member", "--word", word, "--format", "json"]) == 2
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # witness_word(100000) has about 10^10 letters
        ["orbit", "--n", "100000"],
        ["orbit", "--n", "-100000", "--format", "json"],
        # the certified core walks the witness letter by letter
        ["core", "--depth", "12", "--witness", "U^10000001"],
    ],
)
def test_commands_refuse_words_over_the_letter_budget(capsys, argv):
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "--word", "U^1000000000000000000000", "--format", "json"],
        ["core", "--q", "3", "--witness", "U^1000000000000000000000"],
    ],
)
def test_letter_budget_counts_past_the_largest_index(capsys, argv):
    # len() cannot return more than 2^63 - 1 letters; the budget still names the count
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: word of 1000000000000000000000 letters exceeds the budget of 10000000\n"
    )


def test_rank_command_rejects_bad_q(capsys):
    assert main(["rank", "--q", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_rank_command_refuses_huge_q_before_allocating(capsys):
    # a q*q table at q = 10^6 would need 10^12 slots; the size guard answers first
    start = time.monotonic()
    assert main(["rank", "--q", "1000000"]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_commands_refuse_balls_past_the_depth_guard(tmp_path, capsys):
    # the depth-14 ball has about 6.2e6 vertices and 2.2 GB of peak RSS
    for argv in (
        ["graph", "--depth", "14"],
        ["core", "--depth", "14"],
        ["verify", "--depth", "14", "--out", str(tmp_path / "r.json")],
    ):
        start = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_graph_and_core_refuse_huge_q_before_allocating(capsys):
    # the mod-q BFS keeps a q*q id table, 10^10 slots at q = 10^5
    for command in ("graph", "core"):
        start = time.monotonic()
        assert main([command, "--q", "100000"]) == 2
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_main_turns_memory_error_into_exit_two(monkeypatch, capsys):
    def exhausted(depth):
        raise MemoryError

    monkeypatch.setattr(cli, "build_ball", exhausted)
    assert main(["graph", "--depth", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_snf_command_rejects_ragged_matrix(capsys):
    assert main(["snf", "--matrix", "1 2; 3"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_snf_command_refuses_oversized_matrices(capsys):
    assert main(["snf", "--matrix", "; ".join(["1 2"] * 17)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    # 4000-digit entries are refused before any elimination, so at once
    rng = random.Random(67)
    big = [str(rng.randrange(10**3999, 10**4000)) for _ in range(4)]
    start = time.perf_counter()
    code = main(["snf", "--matrix", f"{big[0]} {big[1]}; {big[2]} {big[3]}"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    assert elapsed < 1.0


def test_python_m_parabolic_runs_without_warnings():
    # parabolic/__init__.py imports the CLI, so `-m parabolic.cli` warns from
    # runpy; `-m parabolic` goes through __main__.py and must not
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(parabolic.__file__))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "parabolic", "rank", "--q", "7"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert "index = 49" in proc.stdout


# ---------------------------------------------------------------- parser reuse


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    assert _outcome(capsys, ["rank", "--q", "abc"])[0] == 2  # argparse error
    assert _outcome(capsys, ["rank", "--q", "1"])[0] == 2  # ValueError
    assert _outcome(capsys, ["rank", "--q", "7"])[0] == 0
    assert _outcome(capsys, ["snf", "--matrix", "4 0; 0 6"])[0] == 0
    assert len(builds) == 1


def test_reused_parser_answers_like_a_fresh_one(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "r.json")
    requests = [
        ["verify", *_FAST, "--out", out],
        ["verify", *_FAST, "--out", out, "--format", "json"],
        ["orbit", "--n", "-4"],
        ["orbit", "--n", "5", "--format", "json"],
        ["graph", "--q", "3"],
        ["graph", "--depth", "2", "--format", "json"],
        ["core", "--q", "3"],
        ["core", "--depth", "4", "--format", "json"],
        ["rank", "--q", "9"],
        ["rank", "--q", "9", "--format", "json"],
        ["abelianization", "--q", "6"],
        ["abelianization", "--q", "6", "--format", "json"],
        ["member", "--word", "uVuV", "--q", "4"],
        ["member", "--word", "U^-1 V U^-1 V", "--format", "json"],
        ["snf", "--matrix", "0 2 0 0; 0 0 2 0"],
        ["snf", "--matrix", "4, 0; 0, 6", "--format", "json"],
        # the malformed requests of the queries workload
        ["member", "--word", "UVuVxUV"],
        ["member", "--word", "U^"],
        ["member", "--word", "V^-"],
        ["member", "--word", "u^ ^2"],
        ["rank", "--q", "-3"],
        ["orbit", "--n", "abc"],
        ["snf", "--matrix", "1 2; 3"],
        ["core", "--q", "3", "--depth", "4"],
        ["abelianization", "--q", "1"],
        ["frobnicate"],
        # spellings cli._read declines, which argparse answers
        ["rank", "--q=9"],
        ["rank", "--fo", "json", "--q", "9"],
        ["rank", "--q", "3", "--q", "9"],
        ["member", "--word", "-x"],
    ]
    fresh = {}
    for argv in requests:
        monkeypatch.setattr(cli, "_parser", None)
        fresh[tuple(argv)] = _outcome(capsys, argv)
    assert {r[0] for r in fresh.values()} == {0, 2}
    monkeypatch.setattr(cli, "_parser", None)
    # a --q from one core request must not reach the --depth request after it
    order = [["core", "--q", "3"], ["core", "--depth", "4", "--format", "json"]]
    shuffled = requests * 2
    random.Random(11).shuffle(shuffled)
    for argv in order + shuffled:
        assert _outcome(capsys, argv) == fresh[tuple(argv)], argv


def test_package_binds_only_the_names_the_benchmark_reads():
    # bench/ reads these nine through the package; each is the object its
    # module defines, so a rebinding tracer sees one function under two names
    read = {
        "DEFAULT_WITNESS": action.DEFAULT_WITNESS,
        "Word": words.Word,
        "build_ball": schreier.build_ball,
        "build_mod_q": schreier.build_mod_q,
        "certified_core": schreier.certified_core,
        "core_exact": schreier.core_exact,
        "is_loop_at_base": schreier.is_loop_at_base,
        "run_verification": verify.run_verification,
        "trace": schreier.trace,
    }
    for name, obj in read.items():
        assert getattr(parabolic, name) is obj, name
    assert parabolic.cli is cli
    # besides those nine, the package binds only its submodules
    rest = {
        k for k, v in vars(parabolic).items()
        if not k.startswith("_") and k not in read and not isinstance(v, types.ModuleType)
    }
    assert rest == set()


def test_import_does_not_build_the_parser():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(parabolic.__file__))}
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import parabolic; from parabolic import cli;"
            " print(cli._parser is None)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "True\n"


def test_import_loads_no_dataclasses():
    # the package's records are NamedTuples; -S keeps site hooks out of sys.modules
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(parabolic.__file__))}
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, parabolic; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stdout + proc.stderr


def test_library_checks_raise_rather_than_assert():
    # python -O strips assert statements, so every check of the package
    # raises explicitly and still runs under -O
    src = os.path.dirname(parabolic.__file__)
    names = sorted(f for f in os.listdir(src) if f.endswith(".py"))
    assert "linear.py" in names and "verify.py" in names
    found = []
    for name in names:
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


# ---------------------------------------------------------------- argv fuzz

# junk values: stray word characters, separators, and digits int() reads
# (Arabic-Indic) or refuses (superscript)
_JUNK = st.text(alphabet="UVuv^-+_ ;,.0123456789x\u00b2\u0663\u0660\u00e9", max_size=8)


def _int_text(lo, hi, *oversize):
    return st.one_of(
        st.integers(lo, hi).map(str), st.sampled_from([str(v) for v in oversize]), _JUNK
    )


def _word_text(max_exponent):
    run = st.tuples(
        st.sampled_from("UVuv"), st.none() | st.integers(-max_exponent, max_exponent)
    )
    return st.lists(run, max_size=12).map(
        lambda runs: " ".join(c if e is None else f"{c}^{e}" for c, e in runs)
    )


def _matrix_text():
    entry = st.integers(-50, 50).map(str) | st.sampled_from(
        [str(10**100), "-" + "9" * 100, "\u0663", "1_0", "x"]
    )
    rows = st.integers(1, 4).flatmap(
        lambda c: st.lists(st.lists(entry, min_size=c, max_size=c), min_size=1, max_size=4)
    )
    oversize = st.sampled_from(["; ".join(["1 2"] * 17), " ".join(["1"] * 17)])
    return rows.map(lambda r: "; ".join(" ".join(x) for x in r)) | oversize


# verify's flags: (range within the guards, range drawn when the flag is
# broken, values past the guards)
_VERIFY_FLAGS = {
    "--n-max": ((1, 20), -2, 20, (10_001, 10**9)),
    "--q-max": ((2, 12), -2, 12, (4097, 10**9)),
    "--depth": ((5, 6), -2, 6, (14, 10**6)),
    "--sweep-len": ((1, 14), -2, 20, (15, 10**6)),
}
# values past the guards of the graph command, which it must refuse with exit 2
_GRAPH_OVERSIZE = {"--q": ("2049", "1000000000"), "--depth": ("14", "1000000")}


@st.composite
def _cli_argv(draw):
    """argv for one of the commands, each value bounded so that a request
    within the guards stays fast, or oversize, or junk."""
    command = draw(
        st.sampled_from(
            ["orbit", "member", "rank", "abelianization", "core", "snf", "verify", "graph"]
        )
    )
    if command == "verify":
        # every flag is given, as the defaults run at full size, and at most
        # one is drawn from a range past its guards, oversize values or junk;
        # the report goes to the null device, and stdout still gets it
        argv = ["verify", "--out", os.devnull]
        broken = draw(st.sampled_from([None, None, *_VERIFY_FLAGS]))
        for flag, (valid, lo, hi, oversize) in _VERIFY_FLAGS.items():
            value = _int_text(lo, hi, *oversize) if flag == broken else st.integers(*valid)
            argv += [flag, str(draw(value))]
    elif command == "graph":
        # half the values lie within the guards
        argv = ["graph"]
        which = draw(st.sampled_from(["q", "q", "depth", "depth", "both", "neither"]))
        if which in ("q", "both"):
            q = st.integers(2, 40).map(str) | _int_text(-3, 40, *_GRAPH_OVERSIZE["--q"])
            argv += ["--q", draw(q)]
        if which in ("depth", "both"):
            depth = st.integers(0, 6).map(str) | _int_text(-3, 6, *_GRAPH_OVERSIZE["--depth"])
            argv += ["--depth", draw(depth)]
    elif command == "orbit":
        argv = ["orbit", "--n", draw(_int_text(-300, 300, 3163, -3163, 10**6, 10**30))]
    elif command == "member":
        argv = ["member", "--word", draw(_word_text(10**12) | _JUNK)]
        if draw(st.booleans()):
            argv += ["--q", draw(_int_text(-3, 10**6, 10**30))]
    elif command in ("rank", "abelianization"):
        argv = [command, "--q", draw(_int_text(-3, 300, 4097, 10**9, 10**40))]
    elif command == "core":
        argv = ["core"]
        which = draw(st.sampled_from(["q", "depth", "both", "neither"]))
        if which in ("q", "both"):
            argv += ["--q", draw(_int_text(-3, 40, 2049, 10**9))]
        if which in ("depth", "both"):
            argv += ["--depth", draw(_int_text(-3, 7, 14, 10**6))]
        if draw(st.booleans()):
            argv += ["--witness", draw(_word_text(99) | _JUNK)]
    else:
        argv = ["snf", "--matrix", draw(_matrix_text() | _JUNK)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "dot"]))]
    return argv


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_cli_argv())
def test_one_shot_commands_exit_cleanly_on_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            assert exc.code == 2, argv
            code = 2
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if argv[0] == "graph" and any(
        value in _GRAPH_OVERSIZE.get(flag, ()) for flag, value in zip(argv, argv[1:])
    ):
        assert code == 2, argv
    if code == 2:
        assert lines and "error:" in lines[-1], argv
    else:
        assert not lines, argv


# ---------------------------------------------------------------- dispatch


def _sometimes_dashed(text):
    # argparse reads a value that starts with "-" as an option, unless it is
    # "-", a negative number or holds a space
    return text.flatmap(lambda t: st.sampled_from([t, "-" + t]))


# the values of well-formed options beside verify's sizes and the choices,
# drawn within the guards at the sizes _cli_argv draws
_OPTION_VALUES = {
    "--n": st.integers(-300, 300).map(str),
    "--q": st.integers(-3, 40).map(str),
    "--depth": st.integers(-3, 6).map(str),
    "--word": _sometimes_dashed(_word_text(10**12)),
    "--witness": _sometimes_dashed(_word_text(99)),
    "--matrix": _sometimes_dashed(_matrix_text()),
    "--out": st.just(os.devnull),
}


@st.composite
def _declared_argv(draw):
    """A well-formed argv of one of cli.COMMANDS, its options in any order:
    each required option, each of verify's but --format (its defaults run at
    full size and write to the working directory), and each other option
    half the time, with a value of the option's type and choices."""
    name, _, _, options = draw(st.sampled_from(cli.COMMANDS))
    pairs = []
    for o in options:
        if o.choices is not None:
            value = st.sampled_from(o.choices)
        elif name == "verify" and o.flag in _VERIFY_FLAGS:
            value = st.integers(*_VERIFY_FLAGS[o.flag][0]).map(str)
        else:
            value = _OPTION_VALUES[o.flag]
        if o.required or (name == "verify" and o.flag != "--format") or draw(st.booleans()):
            pairs.append([o.flag, draw(value)])
    return [name, *(text for pair in draw(st.permutations(pairs)) for text in pair)]


@st.composite
def _edge_argv(draw):
    """A well-formed argv or one of _cli_argv's, half the time each, as it
    is or respelled at argparse's edges, or with a value of a shape that
    decides whether cli._read or argparse answers."""
    argv = draw(_declared_argv() | _cli_argv())
    # a third of the argv are kept as drawn
    edit = draw(
        st.sampled_from(
            [
                *[None] * 6, "help", "equals", "abbrev", "repeat", "dashdash", "positional",
                "unknown", "bare", "empty", "unknown command", "top-level", "value",
                "choices",
            ]
        )
    )
    at = draw(st.integers(1, len(argv)))
    options = [i for i, a in enumerate(argv) if a.startswith("--") and i + 1 < len(argv)]
    if edit == "help":
        argv.insert(at, draw(st.sampled_from(["-h", "--help", "--he"])))
    elif edit == "equals" and options:
        i = draw(st.sampled_from(options))
        argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif edit == "abbrev" and options:
        # --wo for --word, --n-m for --n-max, the whole option, or "--",
        # the prefix of every option
        i = draw(st.sampled_from(options))
        argv[i] = argv[i][: draw(st.integers(2, len(argv[i])))]
    elif edit == "repeat" and options:
        # argparse keeps the last value
        i = draw(st.sampled_from(options))
        argv += [argv[i], draw(st.sampled_from([argv[i + 1], "3", "json", "uV"]))]
    elif edit == "dashdash":
        argv.insert(at, "--")
    elif edit == "positional":
        argv.append(draw(st.sampled_from(["junk", "5", "-3", "uV"])))
    elif edit == "unknown":
        argv.insert(at, draw(st.sampled_from(["--bogus", "-x", "--bogus=1", "--formats"])))
    elif edit == "bare":
        argv = argv[:1]
    elif edit == "empty":
        argv = []
    elif edit == "unknown command":
        argv[0] = draw(st.sampled_from(["frobnicate", "ran", "Rank", "", "-", "--"]))
    elif edit == "top-level":
        argv.insert(0, draw(st.sampled_from(["-h", "--help", "--", "-x"])))
    elif edit == "value" and options:
        # values that start with "-" (argparse reads a negative number, "-"
        # and "-1 2" as values, and "-x" and "--q" as options), the empty
        # value and an Arabic-Indic 3, which int() reads
        i = draw(st.sampled_from(options))
        argv[i + 1] = draw(st.sampled_from(["-", "-x", "--q", "-3", "-0", "-1 2", "", "\u0663"]))
    elif edit == "choices":
        value = draw(st.sampled_from(["yaml", "JSON", "text ", ""]))
        if "--format" in argv[:-1]:
            argv[argv.index("--format") + 1] = value
        else:
            argv += ["--format", value]
    return argv


def _through(parse, argv):
    """(exit code or None, stdout, stderr, namespace or None) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns, code = vars(parse(argv)), None
        except SystemExit as exc:
            ns, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), ns


def _main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _empty_working_dir():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def _commands(parser):
    """The subparser of each command of parser, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_reader_models_every_command():
    # build_parser declares exactly cli.COMMANDS: each subparser's actions,
    # help aside, are the declared options field by field, with the dest the
    # reader's lookup gives, and its fn is the declared function
    subparsers = _commands(cli.build_parser())
    assert list(subparsers) == [name for name, _, _, _ in cli.COMMANDS]
    for name, _, fn, options in cli.COMMANDS:
        sub = subparsers[name]
        flags = cli._LOOKUP[name][0]
        assert [
            (a.option_strings, a.dest, a.type, a.choices, a.default, a.required, a.help, a.nargs)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ] == [
            ([o.flag], flags[o.flag][0], o.type, o.choices, o.default, o.required, o.help, None)
            for o in options
        ], name
        assert sub.get_default("fn") is fn, name
        # parse_args would convert a str default through the type; the reader
        # takes each default as it is
        assert not any(isinstance(o.default, str) and o.type for o in options), name


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_edge_argv())
# one well-formed argv for each spelling the reader leaves to argparse:
# an abbreviation, a value outside its choices, a value argparse reads as
# an option, a missing required option and a repeated option
@example(["member", "--wo", "uV"])
@example(["rank", "--q", "9", "--format", "yaml"])
@example(["member", "--word", "-x"])
@example(["rank"])
@example(["rank", "--q", "3", "--q", "9"])
def test_command_subparser_answers_like_the_top_level_parser(argv):
    parsed = _through(cli._parse, argv)
    # the parser main() holds, parsing the whole argv itself
    assert parsed == _through(cli._parser.parse_args, argv), argv
    # the reader answers only options spelled in full, each given once
    if cli._read(argv) is not None:
        spelled = _commands(cli._parser)[argv[0]]._option_string_actions
        given = argv[1::2]
        assert len(set(given)) == len(given) and all(o in spelled for o in given), argv
    # main with a reader that declines every argv, each run in an empty
    # working directory, where verify with no --out writes its report
    with _empty_working_dir(), mock.patch.object(cli, "_read", lambda argv: None):
        full = _main_outcome(argv)
    with _empty_working_dir():
        assert _main_outcome(argv) == full, argv
    assert full[0] in (0, 1, 2), argv


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["parabolic", "rank", "--q", "5", "junk"])
    code, out, err = _outcome(capsys, None)
    usage = cli._parser.format_usage()
    assert (code, out, err) == (2, "", usage + "parabolic: error: unrecognized arguments: junk\n")
    monkeypatch.setattr(sys, "argv", ["parabolic", "rank", "--q", "5"])
    assert _outcome(capsys, None) == _outcome(capsys, ["rank", "--q", "5"])
