"""Tests of the benchmark's output checks: correct outputs pass, and each
deliberately broken output is rejected.

    python3 -m pytest perfbench/test_checks.py

The last test is the smoke mode: one operation of every workload through
`run.py --seconds 0`.
"""

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from godeaux import cli  # noqa: E402
from godeaux.canring import Pipeline  # noqa: E402
from godeaux.instance import load_instance  # noqa: E402
from godeaux.poly import Poly, WeightedRing, format_poly, parse_poly  # noqa: E402

DATA = HERE.parent / "src" / "godeaux" / "data" / "godeaux.json"
HORIZON = 10  # the lowest horizon with relations, to keep the tests quick


def _structured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "structured"])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def ref():
    return checks.Reference(DATA, Pipeline(load_instance()).descend_polys)


@pytest.fixture(scope="module")
def canring_doc():
    code, doc = _structured(["canring", "--max-degree", str(HORIZON)])
    assert code == 0
    return doc


@pytest.fixture(scope="module")
def certified(ref):
    got, problems = checks.certified_quartic_h(ref)
    assert problems == []
    return got


@pytest.fixture(scope="module")
def four_report():
    return Pipeline(load_instance()).fourcanonical(d_max=6)


def _rejected(problems):
    return len(problems) > 0


class _Unscaled:
    """A speed that leaves wall times as they are."""

    @staticmethod
    def reference(wall):
        return wall


def _call(label, code, output):
    return run.Call(label, code, output, 0.0, _Unscaled())


@pytest.fixture(scope="module")
def verify_round():
    return run.verify_maps_op(_Unscaled())


def _perturb_first_coefficient(text, ring):
    poly = parse_poly(text, ring)
    mono, coeff = next(iter(poly.coeffs.items()))
    coeffs = dict(poly.coeffs)
    coeffs[mono] = coeff + 1
    return format_poly(Poly(ring, coeffs))


# -- correct outputs pass ------------------------------------------------------


def test_canring_doc_passes(ref, canring_doc):
    assert checks.check_canring(ref, 0, canring_doc, HORIZON) == []


def test_verify_outputs_pass(ref, certified, four_report):
    code, doc = _structured(["verify", "tricanonical"])
    assert checks.check_verify_tricanonical(ref, code, doc) == []
    code, doc = _structured(["verify", "base-locus"])
    assert checks.check_verify_base_locus(ref, code, doc) == []
    code, doc = _structured(["verify", "paper-generators"])
    assert checks.check_paper_generators(ref, code, doc) == []
    assert checks.check_fourcanonical(ref, four_report, certified) == []
    assert certified == {1: 7, 2: 26, 3: 65}


# -- broken outputs are rejected -----------------------------------------------


def test_perturbed_relation_coefficient(ref, canring_doc):
    doc = copy.deepcopy(canring_doc)
    tring = WeightedRing([f"T{i + 1}" for i in range(len(ref.reference))],
                         ref.reference_degrees)
    rels = doc["relations"]["polynomials"]
    rels[7] = _perturb_first_coefficient(rels[7], tring)
    assert _rejected(checks.check_canring(ref, 0, doc, HORIZON))


def test_duplicated_relation(ref, canring_doc):
    doc = copy.deepcopy(canring_doc)
    tring = WeightedRing([f"T{i + 1}" for i in range(len(ref.reference))],
                         ref.reference_degrees)
    rels = doc["relations"]["polynomials"]
    degree = [parse_poly(t, tring).homogeneous_degree() for t in rels]
    i = next(i for i in range(1, len(rels)) if degree[i] == degree[i - 1])
    rels[i] = rels[i - 1]
    # counts and vanishing still hold; only independence catches the copy
    problems = checks.check_canring(ref, 0, doc, HORIZON)
    assert problems == [f"relations of degree {degree[i]}: rank "
                        f"{doc['relations']['counts'][str(degree[i])] - 1} of "
                        f"{doc['relations']['counts'][str(degree[i])]}"]


def test_wrong_hilbert_entry(ref, canring_doc):
    doc = copy.deepcopy(canring_doc)
    row = doc["hilbert"][5]
    # all three counts agree with one another, but not with Riemann-Roch
    row["descend"] = row["expected"] = row["presentation"] = row["descend"] + 1
    assert _rejected(checks.check_canring(ref, 0, doc, HORIZON))


def test_dropped_base_locus_term(ref, canring_doc):
    doc = copy.deepcopy(canring_doc)
    doc["base_locus"]["m3"]["certificates"][1]["combination"].pop()
    assert _rejected(checks.check_canring(ref, 0, doc, HORIZON))


def test_wrong_base_locus_witness(ref, canring_doc):
    doc = copy.deepcopy(canring_doc)
    doc["base_locus"]["m2"]["witness"]["point"][3] = "t+1"
    assert _rejected(checks.check_canring(ref, 0, doc, HORIZON))


def test_non_vanishing_tricanonical_form(ref, canring_doc):
    doc = copy.deepcopy(canring_doc)
    tri = doc["tricanonical"]
    tri["form"] = _perturb_first_coefficient(tri["form"], ref.tri_ring)
    assert _rejected(checks.check_tricanonical(ref, tri))


def test_tricanonical_form_on_wrong_assignment(ref, canring_doc):
    tri = copy.deepcopy(canring_doc["tricanonical"])
    sigma = tri["assignment"]
    sigma[0], sigma[1] = sigma[1], sigma[0]
    problems = checks.check_tricanonical(ref, tri)
    assert "tricanonical form does not vanish on its assignment" in problems


def test_h_off_by_one(ref, certified, four_report):
    report = copy.deepcopy(four_report)
    report["h"][2] += 1
    assert _rejected(checks.check_fourcanonical(ref, report, certified))


def test_second_difference_off(ref, certified, four_report):
    report = copy.deepcopy(four_report)
    report["h"][6] += 1
    report["second_differences"][6] += 1
    assert _rejected(checks.check_fourcanonical(ref, report, certified))


def test_verify_fourcanonical_wrong_verdict(ref, certified):
    code, doc = _structured(["verify", "fourcanonical"])
    assert code == 1 and checks.check_verify_fourcanonical(ref, code, doc, certified) == []
    assert _rejected(checks.check_verify_fourcanonical(ref, 0, doc, certified))
    flipped = copy.deepcopy(doc)
    flipped["checks"][1]["status"] = "FAIL"
    assert _rejected(checks.check_verify_fourcanonical(ref, code, flipped, certified))
    off = copy.deepcopy(doc)
    off["h"]["3"] += 1
    assert _rejected(checks.check_verify_fourcanonical(ref, code, off, certified))


def test_tampered_rank_certificate(ref):
    cert = checks.rank_certificate(ref, 2)
    assert checks.replay_rank_certificate(ref, 2, cert) == 26
    dropped = dict(cert, relations=cert["relations"][1:])
    assert checks.replay_rank_certificate(ref, 2, dropped) is None
    rel = dict(cert["relations"][0])
    key = next(iter(rel))
    rel[key] += 1
    perturbed = dict(cert, relations=[rel] + cert["relations"][1:])
    assert checks.replay_rank_certificate(ref, 2, perturbed) is None
    free = [b for rel in cert["relations"] for b in rel if b not in cert["rows"]]
    too_high = dict(cert, rows=cert["rows"] + free[:1],
                    columns=cert["columns"] + cert["columns"][:1])
    assert checks.replay_rank_certificate(ref, 2, too_high) is None
    too_low = dict(cert, rows=cert["rows"][1:], columns=cert["columns"][1:])
    assert checks.replay_rank_certificate(ref, 2, too_low) is None


def test_basis_that_does_not_descend(ref):
    ring = ref.ring
    wrong = checks.Reference(DATA, lambda m: [ring.variable(0) ** m] * checks.riemann_roch(m))
    with pytest.raises(checks.CheckError):
        wrong.basis(2)


def test_unreadable_output_is_a_problem(ref):
    assert _rejected(checks.check_canring(ref, 0, {"checks": []}, HORIZON))


def test_irreducible_degree_two():
    tring = WeightedRing(["t"], [1])
    assert checks._irreducible(parse_poly("t^2+t+1", tring))
    assert not checks._irreducible(parse_poly("t^2-1", tring))
    assert not checks._irreducible(parse_poly("4*t^2-1/9", tring))


# -- a failed call fails the run -----------------------------------------------


@pytest.mark.parametrize("code", [1, 2])
def test_canring_exit_status_fails_run(monkeypatch, canring_doc, code):
    monkeypatch.setitem(run.HORIZONS, "canring-export", HORIZON)
    good = json.dumps(canring_doc)
    assert run.check_outputs("canring-export", [[_call("canring", 0, good)]]) == []
    # exit 1: one of canring's own checks says FAIL; exit 2: an input error,
    # reported on stderr with nothing on stdout
    doc = copy.deepcopy(canring_doc)
    doc["checks"][0]["status"] = "FAIL"
    output = json.dumps(doc) if code == 1 else ""
    for ops in ([[_call("canring", code, output)]],
                [[_call("canring", 0, good)], [_call("canring", code, output)]]):
        assert _rejected(run.check_outputs("canring-export", ops))


def test_verify_round_passes_with_only_the_known_failure(verify_round):
    codes = {call.label: call.code for call in verify_round}
    assert codes == {"verify.tricanonical": 0, "verify.fourcanonical": 1,
                     "verify.base-locus": 0, "verify.paper-generators": 0,
                     "pipeline.fourcanonical": 0}
    assert run.check_outputs("verify-maps", [verify_round]) == []


@pytest.mark.parametrize("label", ["verify.tricanonical", "verify.fourcanonical",
                                   "verify.base-locus", "verify.paper-generators"])
def test_failed_verify_call_fails_run(verify_round, label):
    broken = [_call(c.label, 2, "") if c.label == label else c for c in verify_round]
    assert _rejected(run.check_outputs("verify-maps", [broken]))
    if label != "verify.fourcanonical":
        flipped = [_call(c.label, 1, c.output) if c.label == label else c
                   for c in verify_round]
        assert _rejected(run.check_outputs("verify-maps", [flipped]))


# -- smoke mode ------------------------------------------------------------------


def test_smoke_one_operation_per_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--seconds", "0",
                           "--trace", "0"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("correct=True") == 3
