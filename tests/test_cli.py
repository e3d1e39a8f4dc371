"""Command-line behavior: exit codes, output formats, determinism."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from importlib import resources
from pathlib import Path

import pytest

import godeaux
from godeaux import cli
from godeaux.canring import Pipeline

GOLDEN = Path(__file__).resolve().parent / "golden"
# every pinned output: its arguments, exit status and golden file
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())


def golden(name):
    """The structured golden document `name`, whose bytes and exit status
    `test_manifest_output_matches_golden` pins."""
    return json.loads((GOLDEN / name).read_text())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_raw(name):
    return json.loads(resources.files("godeaux.data").joinpath(name).read_text())


def shipped_with(path, value, name="godeaux.json"):
    """The shipped data file `name` with the field at `path` replaced by `value`."""
    raw = load_raw(name)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


class TestCanring:
    def test_structured_success(self):
        # the manifest pins this document's bytes and its exit status 0
        doc = golden("canring.json")
        assert doc["generators"]["computed"]["degrees"] == [
            2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5]
        assert doc["relations"]["total"] == 54
        assert all(c["status"] == "OK" for c in doc["checks"])

    def test_truncated_horizon_skips_relations(self):
        # the manifest pins this document's bytes and its exit status 0
        doc = golden("canring-max-degree-5.json")
        assert doc["relations"] == {"status": "SKIPPED", "reason": "max degree below 10"}
        assert doc["generators"]["computed"]["degrees"] == [
            2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5]
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["relation-profile"] == "SKIPPED"
        assert statuses["generator-profile"] == "OK"

    def test_horizon_below_generators_skips(self, capsys):
        # the degree-5 generators lie above horizon 4, so neither the
        # generator profile nor the codimension can be decided there
        code, out, _ = run_cli(capsys, "canring", "--max-degree", "4", "--format", "structured")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("generator-profile", "codimension"):
            assert checks[name]["status"] == "SKIPPED"
            assert checks[name]["detail"] == "max degree below 5"
        assert checks["reference-generators"]["status"] == "OK"


class TestVerify:
    def test_tricanonical(self):
        doc = golden("verify-tricanonical.json")
        assert doc["status"] == "OK"
        assert doc["kernel_dimensions"]["9"] == 1
        assert doc["assignment"] == [0, 1, 2, 3]
        # lower kernel dimensions are derived from dim I_9 = 1; the document
        # must not differ from the one that eliminated every degree, which
        # the manifest test pins byte for byte

    def test_paper_generators(self):
        doc = golden("verify-paper-generators.json")
        assert doc["ok"]
        assert len(doc["members"]) == 13

    def test_base_locus(self):
        doc = golden("verify-base-locus.json")
        verdicts = {m: doc["reports"][m]["verdict"] for m in ("m2", "m3", "m5")}
        assert verdicts == {"m2": "NONEMPTY", "m3": "EMPTY", "m5": "EMPTY"}

    def test_base_locus_undecided_exit(self, capsys, tmp_path):
        raw = load_raw("godeaux.json")
        raw["base_locus"]["degree_bound"] = 5
        path = tmp_path / "short.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "verify", "base-locus",
                               "--instance", str(path))
        assert code == 3
        assert "UNDECIDED" in out

    @pytest.mark.parametrize("point", [
        ["0", "1", "1", "t+1"],  # does not kill the degree-2 sections
        ["0", "t^2+t+1", "t^2+t+1", "t^3-1"],  # zero modulo t^2+t+1
    ], ids=["not-vanishing", "zero-point"])
    def test_bad_witness_undecided(self, capsys, tmp_path, point):
        raw = load_raw("godeaux.json")
        raw["base_locus"]["witnesses"]["2"]["point"] = point
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "verify", "base-locus",
                               "--instance", str(path), "--format", "structured")
        assert code == 3
        report = json.loads(out)["reports"]["m2"]
        assert report["verdict"] == "UNDECIDED"
        assert report["note"] == "stated witness failed exact verification"

    def test_fourcanonical_reports_mismatch(self):
        # the configured constant 16 is the Veronese value (second difference
        # of P_{4d}); the quartic subalgebra only reaches it from d = 6 on, so
        # against the computed 20, 16, 15 it is wrong at d = 3 and 5 and the
        # command reports that mismatch (the manifest pins its exit 1)
        doc = golden("verify-fourcanonical.json")
        assert doc["second_differences"] == {"3": 20, "4": 16, "5": 15}
        assert doc["expected_second_difference"] == 16
        statuses = [c["status"] for c in doc["checks"]]
        assert statuses == ["FAIL", "OK", "FAIL"]


class TestTopology:
    def test_shipped_data(self):
        doc = golden("topology.json")
        assert doc["chain_homology"] == [[1, []], [0, []], [9, []], [1, []], [1, []]]
        assert doc["mayer_vietoris"] == doc["chain_homology"]
        assert doc["abelianization"] == [0, []]
        assert doc["fundamental_group"]["status"] == "TRIVIAL"
        assert doc["fundamental_group"]["replay_trivial"]

    def test_expectation_mismatch(self, capsys, tmp_path):
        raw = load_raw("topology.json")
        raw["expected"]["glued_homology"][1] = [1, []]
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "topology", "--instance", str(path))
        assert code == 1
        assert "first failing check: chain-homology" in out

    def test_report_only_without_expectations(self, capsys, tmp_path):
        raw = load_raw("topology.json")
        raw["expected"] = {}
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "topology", "--instance", str(path))
        assert code == 0
        assert "check" not in out

    def test_dense_glueing_map(self, capsys, tmp_path):
        # a full-rank 5 x 5 map in degree 1, whose last invariant factor is
        # its determinant, 9464380926
        raw = load_raw("topology.json")
        del raw["expected"]
        mv = raw["mayer_vietoris"]
        mv["curve_cover"][1], mv["curve"][1], mv["surface"][1] = [5, []], [2, []], [3, []]
        mv["maps"][1] = [[0, 72, 0, 0, 95], [79, 0, 0, -59, 0], [0, 0, -85, -12, -49],
                         [0, 75, 0, 0, -39], [77, 64, -24, 81, 44]]
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "topology", "--instance", str(path))
        assert code == 0
        assert "glueing sequence: Z Z/9464380926 Z^9 Z Z\n" in out


def _without_expectations(name):
    """The shipped data file `name` with every stated expectation dropped."""
    raw = load_raw(name)
    raw.pop("expected", None)
    raw.pop("deformation_dimension", None)
    for entry in raw.get("configs", []) + raw.get("section_bounds", []):
        entry.pop("expected_degrees", None)
        entry.pop("expected", None)
    return raw


@pytest.mark.parametrize("argv, name, computed", [
    (["canring"], "godeaux.json", {"reference-generators", "hilbert-consistency"}),
    (["verify", "fourcanonical"], "godeaux.json", set()),
    (["verify", "base-locus"], "godeaux.json", set()),
    (["defcalc"], "defcalc.json", set()),
], ids=["canring", "verify-fourcanonical", "verify-base-locus", "defcalc"])
def test_no_check_without_expectation(capsys, tmp_path, argv, name, computed):
    # a check appears only where the data file states an expectation, the
    # rule `topology` keeps above; what remains are the checks of computed
    # facts alone, and they pass on the shipped data
    path = tmp_path / name
    path.write_text(json.dumps(_without_expectations(name)))
    code, out, _ = run_cli(capsys, *argv, "--instance", str(path), "--format", "structured")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert {c["name"] for c in checks} == computed
    assert all(c["status"] == "OK" for c in checks)


class TestDefcalc:
    def test_shipped_data(self):
        doc = golden("defcalc.json")
        degrees = {e["config"]: e["degrees"] for e in doc["configs"]}
        assert degrees == {"surface_double_curve": {"double_curve": 1},
                           "limit_core": {"core": -5},
                           "limit_arm": {"arm": 2}}

    def test_expectation_mismatch(self, capsys, tmp_path):
        raw = load_raw("defcalc.json")
        raw["configs"][0]["expected_degrees"]["double_curve"] = 7
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(raw))
        code, _, _ = run_cli(capsys, "defcalc", "--instance", str(path))
        assert code == 1


class TestInputErrors:
    def test_corrupt_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"broken": tr')
        code, _, err = run_cli(capsys, "canring", "--instance", str(path))
        assert code == 2
        assert err == f"error: {path}: Expecting value: line 1 column 12 (char 11)\n"

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, _, err = run_cli(capsys, "canring", "--instance", str(path))
        assert code == 2
        assert err == f"error: {path}: No such file or directory\n"

    def test_bad_max_degree(self, capsys):
        code, _, err = run_cli(capsys, "canring", "--max-degree", "1")
        assert code == 2
        assert "error:" in err

    def test_max_degree_bounded(self, capsys, monkeypatch):
        # refused before any pipeline is built
        def planted(*args, **kwargs):
            raise AssertionError("a pipeline was built")

        monkeypatch.setattr(cli, "Pipeline", planted)
        code, out, err = run_cli(capsys, "canring", "--max-degree", "17")
        assert code == 2
        assert out == ""
        assert err == "error: --max-degree must be at most 16, got 17\n"

    @pytest.mark.parametrize("field, value", [
        ("point", ["0", "1", "1"]),
        ("point", ["0", "1", "1", "t^"]),
        ("extension_minimal_polynomial", None),
        ("extension_minimal_polynomial", "0"),
    ], ids=["three-coordinates", "unparsable-coordinate", "missing-polynomial",
            "zero-polynomial"])
    def test_malformed_witness(self, capsys, tmp_path, field, value):
        raw = load_raw("godeaux.json")
        witness = raw["base_locus"]["witnesses"]["2"]
        if value is None:
            del witness[field]
        else:
            witness[field] = value
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "verify", "base-locus", "--instance", str(path))
        assert code == 2
        assert "base_locus.witnesses" in err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", [["topology"], ["defcalc"], ["verify", "tricanonical"]],
                             ids=["topology", "defcalc", "verify"])
    def test_max_degree_only_for_graded_commands(self, capsys, command):
        # only canring reads the horizon; every verify target runs at 12
        with pytest.raises(SystemExit) as info:
            cli.main(command + ["--max-degree", "3"])
        assert info.value.code == 2
        assert "--max-degree" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, content, message", [
        (["canring"], [], "the top level must be an object, not an array"),
        (["topology"], [], "the top level must be an object, not an array"),
        (["defcalc"], [], "the top level must be an object, not an array"),
        (["verify", "tricanonical"],
         shipped_with(("tricanonical", "generator_indices"), [2, 3, 4]),
         "tricanonical: one generator index per variable required (4 variables, 3 indices)"),
        (["verify", "tricanonical"],
         shipped_with(("tricanonical", "generator_indices"), [0, 3, 4, 5]),
         "tricanonical: the indexed generators must share one degree"),
        (["canring"], shipped_with(("expected", "surface_invariants", "K2"), "1"),
         "expected.surface_invariants.K2 must be an integer, not a string"),
        (["topology"], load_raw("godeaux.json"), "missing field 'glued_chain_model'"),
        (["topology"], shipped_with(("glued_chain_model", "ranks", 0), True, "topology.json"),
         "glued_chain_model.ranks.0 must be an integer, not true or false"),
        (["topology"],
         shipped_with(("presentation", "relators", 0), [2, -1, True], "topology.json"),
         "presentation.relators.0.2 must be an integer, not true or false"),
        (["canring"], shipped_with(("ring", "weights", 0), True),
         "ring.weights.0 must be an integer, not true or false"),
        (["defcalc"],
         shipped_with(("configs", 0, "components", 0, "branches", 0, "node_preimages"), True,
                      "defcalc.json"),
         "configs.0.components.0.branches.0.node_preimages must be an integer, not true or false"),
        (["verify", "tricanonical"], shipped_with(("modulus",), "(x1+x2+y+z)^80"),
         "modulus: degree 240 above the limit 64 (at position 11)"),
        (["verify", "tricanonical"], shipped_with(("modulus",), "3^10000000"),
         "modulus: coefficients of up to 30000000 bits, above the limit 4096 (at position 1)"),
        (["verify", "tricanonical"], shipped_with(("modulus",), "z^2+" + "1" * 5000),
         "modulus: literal of more than 4096 bits (at position 4)"),
        (["canring"], shipped_with(("modulus",), "z^2+y^3+"),
         "modulus: unexpected end of input (at position 8)"),
        (["canring"], shipped_with(("reference_generators", 1, "polynomial"), "x1*w"),
         "reference_generators.1.polynomial: unknown variable 'w' (at position 3)"),
        (["verify", "tricanonical"], shipped_with(("tricanonical", "reference_form"), "z2^9-"),
         "tricanonical.reference_form: unexpected end of input (at position 5)"),
        (["canring"], shipped_with(("curve_factors", 1), ["a2", "a2"]),
         "curve_factors.1: duplicate variable name"),
        (["canring"], shipped_with(("residue_images", 2), ["-a1*b1", "-a2*b2^2"]),
         "residue_images.2: components of unequal degree"),
        (["canring"], shipped_with(("tau_generators", 0), ["a1", "c2"]),
         "tau_generators.0: unknown variable 'c2' (at position 0)"),
        (["verify", "base-locus"],
         shipped_with(("base_locus", "witnesses"),
                      {"x": load_raw("godeaux.json")["base_locus"]["witnesses"]["2"]}),
         "base_locus.witnesses.x: the key must be an integer degree"),
        (["verify", "base-locus"],
         shipped_with(("base_locus", "witnesses"),
                      {"1": load_raw("godeaux.json")["base_locus"]["witnesses"]["2"]}),
         "base_locus.witnesses.1: the degree must be at least 2, got 1"),
        (["verify", "base-locus"],
         shipped_with(("base_locus", "witnesses"),
                      {"-2": load_raw("godeaux.json")["base_locus"]["witnesses"]["2"]}),
         "base_locus.witnesses.-2: the degree must be at least 2, got -2"),
        (["canring"], shipped_with(("ring", "names", 1), "x1"), "ring: duplicate variable name"),
        (["verify", "tricanonical"], shipped_with(("tricanonical", "variables", 0), "1bad"),
         "tricanonical.variables: bad variable name: '1bad'"),
        (["canring"], shipped_with(("ring", "weights", 0), 0),
         "ring: weights must be positive integers, got 0"),
        (["verify", "base-locus"], shipped_with(("base_locus", "degree_bound"), -3),
         "base_locus.degree_bound must be nonnegative, got -3"),
        (["verify", "base-locus"], shipped_with(("base_locus", "nonempty_evidence_bound"), -5),
         "base_locus.nonempty_evidence_bound must be nonnegative, got -5"),
        (["verify", "base-locus"], shipped_with(("base_locus", "degree_bound"), 1000),
         "base_locus.degree_bound must be at most 40, got 1000"),
        (["canring"], shipped_with(("base_locus", "nonempty_evidence_bound"), 41),
         "base_locus.nonempty_evidence_bound must be at most 40, got 41"),
    ], ids=["canring-array", "topology-array", "defcalc-array", "three-tricanonical-indices",
            "mixed-degree-tricanonical", "string-K2", "topology-given-instance", "boolean-rank",
            "boolean-relator-letter", "boolean-weight", "boolean-node-preimages",
            "modulus-degree-240", "modulus-huge-coefficient", "modulus-long-literal",
            "modulus-unfinished", "reference-generator-unknown-variable",
            "tricanonical-form-unfinished", "curve-factor-duplicate-name",
            "residue-image-unequal-degrees", "tau-generator-unknown-variable",
            "witness-key-not-an-integer", "witness-degree-one", "witness-degree-negative",
            "ring-duplicate-name", "tricanonical-bad-name",
            "ring-zero-weight", "negative-degree-bound", "negative-evidence-bound",
            "huge-degree-bound", "evidence-bound-past-cap"])
    def test_refused_at_load(self, capsys, tmp_path, argv, content, message):
        # each of these once crashed mid-run with a traceback, printed a bare
        # field name or read a boolean as 0 or 1; the loader now refuses
        # them with one line
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, *argv, "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("modulus", [
        lambda text: "(" * 300 + text + ")" * 300,
        lambda text: "-" * 1000 + "(" + text + ")",
    ], ids=["300-parentheses", "1000-minus-signs"])
    def test_deep_nesting_refused(self, capsys, tmp_path, modulus):
        # these once exhausted Python's recursion limit, and the traceback
        # exited 1, the status of a verification mismatch
        raw = load_raw("godeaux.json")
        raw["modulus"] = modulus(raw["modulus"])
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "verify", "tricanonical", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: modulus: nesting deeper than ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["canring", "topology"])
    def test_deeply_nested_file_refused(self, capsys, tmp_path, command):
        # the JSON decoder once exhausted Python's recursion limit here, and
        # the traceback exited 1, the status of a verification mismatch
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(capsys, command, "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: nested too deeply to decode\n"

    @pytest.mark.parametrize("field, value, message", [
        (("mayer_vietoris", "curve", 0), [1, [1]],
         "mayer_vietoris.curve.0: torsion coefficients must be at least 2"),
        (("glued_chain_model", "boundaries", 2, 1), [1],
         "glued_chain_model.boundaries.1: its composite with the next boundary map "
         "is not zero"),
    ], ids=["torsion-one", "nonzero-square"])
    def test_topology_value_names_field(self, capsys, tmp_path, field, value, message):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(shipped_with(field, value, "topology.json")))
        code, out, err = run_cli(capsys, "topology", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("fault", [ValueError, KeyError, TypeError])
    def test_program_fault_propagates(self, capsys, monkeypatch, fault):
        # only the loader and flag checks decide exit 2; an exception from
        # the computation is a fault and keeps its traceback
        def planted(self):
            raise fault("planted")

        monkeypatch.setattr(Pipeline, "tricanonical", planted)
        with pytest.raises(fault, match="planted"):
            cli.main(["verify", "tricanonical"])


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """`cli._in_child` forks whatever the CPU count; returns the pids forked."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(cli, "_may_fork", lambda: True)
    monkeypatch.setattr(os, "fork", recorded)
    return pids


def in_child_only(body):
    """A stand-in for a map check that runs `body` in a forked child and
    fails if the parent runs it."""
    parent = os.getpid()

    def planted(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("a map check ran in the parent")
        return body()

    return planted


class TestMapChecksChild:
    """canring's map checks run in one forked child (`cli._in_child`)."""

    @pytest.mark.parametrize("argv, name", [
        (["canring", "--format", "structured"], "canring.json"),
        (["canring"], "canring.txt"),
    ], ids=["structured", "text"])
    def test_forked_and_inline_agree(self, capsys, monkeypatch, forked, argv, name):
        code, forked_out, _ = run_cli(capsys, *argv)
        assert (code, len(forked)) == (0, 1)
        assert_no_child()
        monkeypatch.setattr(cli, "_may_fork", lambda: False)
        code, inline_out, _ = run_cli(capsys, *argv)
        assert (code, len(forked)) == (0, 1)
        assert forked_out == inline_out
        assert forked_out.encode() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("fault", [ValueError, KeyError, TypeError])
    def test_child_fault_propagates(self, monkeypatch, forked, fault):
        # a fault in the child keeps its type and carries the child's
        # traceback; it is raised, not reported as an input error
        def planted():
            raise fault("planted")

        monkeypatch.setattr(Pipeline, "base_locus", in_child_only(planted))
        with pytest.raises(fault, match="planted") as info:
            cli.main(["canring", "--max-degree", "5"])
        cause = info.value.__cause__
        assert isinstance(cause, cli._ChildTraceback)
        assert "Traceback (most recent call last)" in str(cause)
        assert "in planted" in str(cause)
        assert len(forked) == 1
        assert_no_child()

    @pytest.mark.parametrize("end, named", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
        (lambda: os._exit(3), "exit status 3"),
    ], ids=["killed", "exited"])
    def test_child_without_result(self, monkeypatch, forked, end, named):
        monkeypatch.setattr(Pipeline, "fourcanonical", in_child_only(end))
        with pytest.raises(RuntimeError,
                           match=re.escape(f"the child process ended without a result ({named})")):
            cli.main(["canring", "--max-degree", "5"])
        assert len(forked) == 1
        assert_no_child()

    def test_child_reaped_when_the_parent_raises(self, monkeypatch, forked):
        # the child would run for a minute; the parent's fault kills it
        monkeypatch.setattr(Pipeline, "tricanonical", in_child_only(lambda: time.sleep(60)))

        def fault(self):
            raise ValueError("parent fault")

        monkeypatch.setattr(Pipeline, "relations", fault)
        start = time.monotonic()
        with pytest.raises(ValueError, match="parent fault"):
            cli.main(["canring", "--max-degree", "5"])
        assert time.monotonic() - start < 30
        assert len(forked) == 1
        assert_no_child()

    @pytest.mark.parametrize("condition", ["one-cpu", "no-fork", "second-thread"])
    def test_inline_rule(self, capsys, monkeypatch, condition):
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert cli._may_fork()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if condition == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif condition == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            thread.start()
        try:
            assert not cli._may_fork()
            code, out, _ = run_cli(capsys, "canring", "--max-degree", "5", "--format",
                                   "structured")
        finally:
            stop.set()
            if condition == "second-thread":
                thread.join(10)
                assert not thread.is_alive()
        assert code == 0
        assert out.encode() == (GOLDEN / "canring-max-degree-5.json").read_bytes()


@pytest.mark.parametrize("entry", MANIFEST, ids=[entry["golden"] for entry in MANIFEST])
def test_manifest_output_matches_golden(capsys, entry):
    # the behavioural contract, byte for byte with its exit status;
    # `verify fourcanonical` exits 1 on the shipped expectation
    code, out, _ = run_cli(capsys, *entry["args"])
    assert code == entry["exit"]
    assert out.encode() == (GOLDEN / entry["golden"]).read_bytes()


def test_manifest_lists_every_golden():
    listed = [entry["golden"] for entry in MANIFEST]
    assert len(set(listed)) == len(listed)
    assert set(listed) == {path.name for path in GOLDEN.iterdir()} - {"MANIFEST.json"}


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "godeaux.cli", "defcalc"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "surface_double_curve: double_curve=1" in result.stdout


@pytest.mark.parametrize("seed", ["0", "1"])
def test_structured_output_ignores_hash_seed(seed):
    # the elimination's rows are dicts and it gathers rows in sets, and the
    # product tables are dicts keyed by monomial tuples; the document must
    # not depend on the iteration order a hash seed gives
    src = str(Path(godeaux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "godeaux.cli", "canring", "--max-degree", "5",
         "--format", "structured"],
        capture_output=True, env=env, timeout=120)
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "canring-max-degree-5.json").read_bytes()
