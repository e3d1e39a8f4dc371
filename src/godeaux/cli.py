"""Command-line entry point.

Subcommands: canring (generators, relations, dimension triple), verify
(one published value at a time), topology (homology and fundamental
group of the glued surface), defcalc (glueing sheaf degrees).

Exit codes: 0 success, 1 verification mismatch, 2 input error (a data
file's loader or a flag check refused the input), 3 an UNDECIDED
certificate.  Any other exception is a program fault and keeps its
traceback.  Structured output is a canonical JSON document with sorted
keys, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import defcalc as defcalc_mod
from . import topology as topology_mod
from .canring import Pipeline
from .datafile import InputError
from .instance import load_instance

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3


def _check(name: str, ok: bool, detail: str = "") -> dict:
    entry = {"name": name, "status": "OK" if ok else "FAIL"}
    if detail:
        entry["detail"] = detail
    return entry


def _skip(name: str, detail: str) -> dict:
    return {"name": name, "status": "SKIPPED", "detail": detail}


def _code_for(checks: Sequence[dict]) -> int:
    if any(c["status"] == "UNDECIDED" for c in checks):
        return EXIT_UNDECIDED
    if any(c["status"] == "FAIL" for c in checks):
        return EXIT_MISMATCH
    return EXIT_OK


def _check_lines(checks: Sequence[dict]) -> list[str]:
    lines = []
    for c in checks:
        detail = f" ({c['detail']})" if c.get("detail") else ""
        lines.append(f"check {c['name']}: {c['status']}{detail}")
    failing = [c["name"] for c in checks if c["status"] not in ("OK", "SKIPPED")]
    if failing:
        lines.append(f"first failing check: {failing[0]}")
    return lines


# the largest canring horizon accepted: the cost grows 1.3 to 2 times with
# each degree past 12 (in-process, 2 cores, Python 3.11: 0.4 s at 14, 1.0
# to 1.2 s at 16), so a much larger one runs for minutes
MAX_DEGREE = 16


def _pipeline(path: Optional[str], max_degree: int = 12) -> Pipeline:
    if max_degree < 2:
        raise InputError(f"--max-degree must be at least 2, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise InputError(f"--max-degree must be at most {MAX_DEGREE}, got {max_degree}")
    return Pipeline(load_instance(path), max_degree=max_degree)


# -- canring -------------------------------------------------------------


def _run_canring(args) -> tuple[int, dict, list[str]]:
    pipe = _pipeline(args.instance, args.max_degree)
    expected = pipe.instance.expected
    doc = pipe.export_presentation()

    # below the largest expected generator degree the horizon cannot see
    # every generator, so neither the profile nor the codimension is decided
    top = max(expected.get("generator_degrees") or [0])

    def within_horizon(name: str, ok: bool, detail: str) -> dict:
        if doc["max_degree"] < top:
            return _skip(name, f"max degree below {top}")
        return _check(name, ok, detail)

    checks = []
    degrees = doc["generators"]["computed"]["degrees"]
    checks.append(within_horizon("generator-profile",
                                 degrees == expected.get("generator_degrees"),
                                 "degrees " + ",".join(map(str, degrees))))
    checks.append(_check("reference-generators",
                         doc["generators"]["reference"]["verified"],
                         "membership and graded spans"))
    relations = doc["relations"]
    if relations.get("status") == "SKIPPED":
        checks.append(_skip("relation-profile", relations["reason"]))
    else:
        want = {str(k): v for k, v in expected.get("relation_degrees", {}).items()}
        ok = relations["counts"] == want and relations["total"] == sum(want.values())
        checks.append(_check("relation-profile",
                             ok, f"total {relations['total']}"))
    checks.append(_check("hilbert-consistency",
                         all(row["agree"] for row in doc["hilbert"]),
                         f"m=0..{doc['max_degree']}"))
    checks.append(within_horizon("codimension",
                                 doc["codimension"] == expected.get("codimension"),
                                 str(doc["codimension"])))
    doc["checks"] = checks

    lines = [f"instance: {doc['instance']}",
             f"max degree: {doc['max_degree']}",
             "generator degrees: " + " ".join(map(str, degrees))]
    if relations.get("status") == "SKIPPED":
        lines.append("relations: SKIPPED (" + relations["reason"] + ")")
    else:
        counts = " ".join(f"{d}:{c}" for d, c in sorted(
            relations["counts"].items(), key=lambda kv: int(kv[0])))
        lines.append(f"relation counts: {counts} (total {relations['total']})")
    lines.extend(_check_lines(checks))
    return _code_for(checks), doc, lines


# -- verify --------------------------------------------------------------


def _run_verify_tricanonical(pipe: Pipeline) -> tuple[int, dict, list[str]]:
    report = pipe.tricanonical()
    doc = dict(report)
    doc["kernel_dimensions"] = {str(d): v
                                for d, v in report["kernel_dimensions"].items()}
    doc["target"] = "tricanonical"
    code = EXIT_OK if report["status"] == "OK" else EXIT_MISMATCH
    lines = ["kernel dimensions: " + " ".join(
        f"{d}:{report['kernel_dimensions'][d]}"
        for d in sorted(report["kernel_dimensions"]))]
    if report.get("assignment") is not None:
        lines.append("assignment: " + ",".join(map(str, report["assignment"])))
        lines.append("form: " + report["form"])
        lines.append(f"substitution vanishes: {report['substitution_vanishes']}")
    lines.append(f"status: {report['status']}")
    return code, doc, lines


def _run_verify_base_locus(pipe: Pipeline) -> tuple[int, dict, list[str]]:
    expected = pipe.instance.expected.get("base_locus", {})
    reports = {}
    checks = []
    for m in (2, 3, 5):
        report = pipe.base_locus(m)
        reports[f"m{m}"] = report
        want = expected.get(str(m))
        if report["verdict"] == "UNDECIDED":
            checks.append({"name": f"base-locus-m{m}", "status": "UNDECIDED",
                           "detail": f"bound {report['bound']}"})
        else:
            checks.append(_check(f"base-locus-m{m}",
                                 want is None or report["verdict"] == want,
                                 f"verdict {report['verdict']}"))
    doc = {"target": "base-locus", "reports": reports, "checks": checks}
    lines = [f"m={m}: {reports[f'm{m}']['verdict']}" for m in (2, 3, 5)]
    lines.extend(_check_lines(checks))
    return _code_for(checks), doc, lines


def _run_verify_fourcanonical(pipe: Pipeline) -> tuple[int, dict, list[str]]:
    report = pipe.fourcanonical()
    want = pipe.instance.expected.get("fourcanonical_second_difference")
    checks = []
    for d in sorted(report["second_differences"]):
        got = report["second_differences"][d]
        checks.append(_check(f"second-difference-d{d}", want is None or got == want,
                             f"got {got}, expected {want}"))
    doc = {"target": "fourcanonical",
           "h": {str(d): v for d, v in report["h"].items()},
           "second_differences": {str(d): v
                                  for d, v in report["second_differences"].items()},
           "expected_second_difference": want,
           "checks": checks}
    lines = ["hilbert: " + " ".join(f"{d}:{report['h'][d]}"
                                    for d in sorted(report["h"]))]
    lines.append("second differences: " + " ".join(
        f"{d}:{report['second_differences'][d]}"
        for d in sorted(report["second_differences"])))
    lines.extend(_check_lines(checks))
    return _code_for(checks), doc, lines


def _run_verify_reference(pipe: Pipeline) -> tuple[int, dict, list[str]]:
    report = pipe.verify_reference()
    doc = dict(report)
    doc["target"] = "paper-generators"
    code = EXIT_OK if report["ok"] else EXIT_MISMATCH
    bad_members = [e["index"] for e in report["members"] if not e["member"]]
    bad_spans = [e["degree"] for e in report["spans"] if not e["spans"]]
    lines = [f"listed generators: {len(report['members'])}",
             "membership failures: " + (",".join(map(str, bad_members)) or "none"),
             "span failures: " + (",".join(map(str, bad_spans)) or "none"),
             f"status: {'OK' if report['ok'] else 'FAIL'}"]
    return code, doc, lines


_VERIFY = {"tricanonical": _run_verify_tricanonical, "base-locus": _run_verify_base_locus,
           "fourcanonical": _run_verify_fourcanonical, "paper-generators": _run_verify_reference}


def _run_verify(args) -> tuple[int, dict, list[str]]:
    return _VERIFY[args.target](_pipeline(args.instance))


# -- topology ------------------------------------------------------------


def _group_doc(value) -> object:
    if isinstance(value, str):
        return value
    return value.as_pair()


def _run_topology(args) -> tuple[int, dict, list[str]]:
    data = topology_mod.load_topology_data(args.instance)
    expected = data["expected"]
    homology = topology_mod.homology(data["chain_model"])
    sequence = topology_mod.mayer_vietoris_solve(data["mayer_vietoris"])
    abelian = topology_mod.abelianization(data["presentation"])
    certificate = topology_mod.tietze_trivialize(data["presentation"])
    replay_ok = False
    if certificate["status"] == "TRIVIAL":
        final = topology_mod.replay_certificate(data["presentation"],
                                                certificate["steps"])
        replay_ok = final.is_empty

    doc = {
        "chain_homology": [g.as_pair() for g in homology],
        "chain_homology_names": [g.describe() for g in homology],
        "mayer_vietoris": [_group_doc(g) for g in sequence],
        "abelianization": abelian.as_pair(),
        "fundamental_group": {"status": certificate["status"],
                              "steps": certificate["steps"],
                              "replay_trivial": replay_ok},
    }
    checks = []
    if "glued_homology" in expected:
        checks.append(_check("chain-homology",
                             doc["chain_homology"] == expected["glued_homology"],
                             " ".join(doc["chain_homology_names"])))
        checks.append(_check("mayer-vietoris",
                             doc["mayer_vietoris"] == expected["glued_homology"],
                             "agrees with chain model"))
    if "abelianization_trivial" in expected:
        checks.append(_check("abelianization",
                             abelian.is_trivial == expected["abelianization_trivial"],
                             abelian.describe()))
    if "presentation_trivializes" in expected:
        trivialized = certificate["status"] == "TRIVIAL" and replay_ok
        checks.append(_check("presentation-trivial",
                             trivialized == expected["presentation_trivializes"],
                             f"{len(certificate['steps'])} steps"))
    doc["checks"] = checks

    lines = ["homology: " + " ".join(doc["chain_homology_names"]),
             "glueing sequence: " + " ".join(
                 g if isinstance(g, str) else g.describe() for g in sequence),
             "abelianization: " + abelian.describe(),
             f"presentation: {certificate['status']} "
             f"({len(certificate['steps'])} steps, replay {replay_ok})"]
    lines.extend(_check_lines(checks))
    return _code_for(checks), doc, lines


# -- defcalc -------------------------------------------------------------


def _run_defcalc(args) -> tuple[int, dict, list[str]]:
    data = defcalc_mod.load_defcalc_data(args.instance)
    checks = []
    results = []
    for config, expected in zip(data["configs"], data["expected_degrees"]):
        degrees = defcalc_mod.t1_degrees(config)
        entry = {"config": config["name"], "degrees": degrees}
        if expected is not None:
            entry["expected"] = expected
            checks.append(_check(f"degrees-{config['name']}", degrees == expected,
                                 " ".join(f"{k}:{v}" for k, v in
                                          sorted(degrees.items()))))
        results.append(entry)
    bounds = []
    for case in data["section_bounds"]:
        got = defcalc_mod.section_bound(case["degree"], case["arithmetic_genus"])
        bounds.append({"degree": case["degree"],
                       "arithmetic_genus": case["arithmetic_genus"],
                       "bound": got})
        if "expected" in case:
            checks.append(_check(
                f"section-bound-{case['degree']}-{case['arithmetic_genus']}",
                got == case["expected"], f"bound {got}"))
    doc = {"configs": results, "section_bounds": bounds,
           "deformation_dimension": defcalc_mod.DEL_PEZZO_DEFORMATION_DIMENSION}
    if data["deformation_dimension"] is not None:
        checks.append(_check(
            "deformation-dimension",
            defcalc_mod.DEL_PEZZO_DEFORMATION_DIMENSION == data["deformation_dimension"],
            str(defcalc_mod.DEL_PEZZO_DEFORMATION_DIMENSION)))
    doc["checks"] = checks

    lines = []
    for entry in results:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(entry["degrees"].items()))
        lines.append(f"{entry['config']}: {pairs}")
    lines.append("section bounds: " + " ".join(
        f"({b['degree']},{b['arithmetic_genus']})->{b['bound']}" for b in bounds))
    lines.extend(_check_lines(checks))
    return _code_for(checks), doc, lines


# -- plumbing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godeaux",
        description="Graded ring, topology and deformation calculators "
                    "for a glued stable surface.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--instance", metavar="FILE",
                        help="instance or data file (default: bundled)")
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text", help="output style")

    canring = sub.add_parser("canring", help="generators, relations and the dimension triple")
    canring.add_argument("--max-degree", dest="max_degree", type=int, default=12,
                         metavar="N",
                         help=f"degree horizon, 2 to {MAX_DEGREE} (default 12)")
    common(canring)
    verify = sub.add_parser("verify", help="check one published value")
    verify.add_argument("target", choices=tuple(_VERIFY))
    common(verify)
    common(sub.add_parser(
        "topology", help="homology and fundamental group of the glued surface"))
    common(sub.add_parser(
        "defcalc", help="glueing sheaf degrees and section bounds"))
    return parser


_DISPATCH = {
    "canring": _run_canring,
    "verify": _run_verify,
    "topology": _run_topology,
    "defcalc": _run_defcalc,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc, lines = _DISPATCH[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "structured":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
