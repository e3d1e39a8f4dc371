"""Command-line entry point.

Subcommands: canring (generators, relations, dimension triple), verify
(one published value at a time), topology (homology and fundamental
group of the glued surface), defcalc (glueing sheaf degrees).

`canring` runs its map checks (tricanonical, fourcanonical and the base
loci) in one forked child process while it computes the generators and
relations itself.  It does so only when it may use more than one CPU,
`os.fork` exists and no other thread runs; otherwise it runs them first,
in its own process.  The output is the same either way.

`topology` and `defcalc` import their modules when they run.  The graded
commands (`canring`, `verify`) use neither, and each command is a process
of its own that pays for every import at start-up: imported with the rest,
the two took about a fifth of `import godeaux.cli` and `load_instance`
when no bytecode is cached.

Exit codes: 0 success, 1 verification mismatch, 2 input error (a data
file's loader or a flag check refused the input), 3 an UNDECIDED
certificate.  Any other exception is a program fault and keeps its
traceback.  Structured output is a canonical JSON document with sorted
keys, byte-identical across runs.

A check against a published value appears only where the data file
states that value (`_expect`); a file with no expectations gets a report
and exit 0, unless a check of computed facts alone (canring's reference
generators and Hilbert consistency) fails or a base locus is UNDECIDED.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
from typing import Callable, Iterator, Optional, Sequence

from .canring import Pipeline
from .datafile import InputError
from .instance import load_instance
from .poly import format_poly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3


def _check(name: str, ok: bool, detail: str = "") -> dict:
    entry = {"name": name, "status": "OK" if ok else "FAIL"}
    if detail:
        entry["detail"] = detail
    return entry


def _expect(name: str, stated, got, detail: str) -> list[dict]:
    """The check that `got` is the data file's expected value `stated`, or
    none where the file states no expectation (`stated` is None)."""
    return [] if stated is None else [_check(name, got == stated, detail)]


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


def _str_keys(mapping: dict) -> dict:
    """`mapping` with its int keys as strings, as a JSON document keys them."""
    return {str(k): v for k, v in mapping.items()}


# the m whose base loci of |mK| `canring` and `verify base-locus` report
_BASE_LOCUS_DEGREES = (2, 3, 5)


def _base_loci(pipe: Pipeline) -> dict:
    """The base-locus reports, keyed m2, m3, m5."""
    return {f"m{m}": pipe.base_locus(m) for m in _BASE_LOCUS_DEGREES}


# the largest canring horizon accepted: the cost grows 1.4 to 1.65 times
# with each degree past 12 (in-process, best of three, a 2-core Xeon,
# Python 3.11.7, the map checks in a child: 0.1 s at 12, 0.2 s at 14,
# 0.51 s at 16), and the ratio itself rises with the degree
MAX_DEGREE = 16


def _pipeline(path: Optional[str], max_degree: int = 12) -> Pipeline:
    if max_degree < 2:
        raise InputError(f"--max-degree must be at least 2, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise InputError(f"--max-degree must be at most {MAX_DEGREE}, got {max_degree}")
    return Pipeline(load_instance(path), max_degree=max_degree)


# -- canring -------------------------------------------------------------


class _ChildTraceback(Exception):
    """The traceback text of an exception raised in a child process; the
    parent raises the exception again from it."""


def _may_fork() -> bool:
    """Whether a forked child can run beside this process: `os.fork`
    exists, the process may use more than one CPU, and no other thread
    runs (a fork copies only the calling thread, and Python 3.12 warns)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


@contextlib.contextmanager
def _in_child(task: Callable[[], object]) -> Iterator[Callable[[], object]]:
    """Run `task` in a forked child while the block runs, and yield a join
    that returns the task's value.

    The child pickles one (ok, value, traceback text) into a pipe and ends
    with `os._exit`, so it flushes no stdio buffer it inherited.  The join
    reads the pipe to its end and then reaps the child.  An `Exception` the
    task raised is raised again with its type, from the child's traceback
    text; a child that ends without a result raises RuntimeError naming its
    exit status.  A child not joined when the block ends, because the block
    raised, is killed and reaped.  Where `_may_fork` says no, the task runs
    at once and the join returns its value.
    """
    if not _may_fork():
        value = task()
        yield lambda: value
        return
    # imported here, so that a command that forks no child does not load them
    import pickle
    import traceback

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, task(), ""))
            except Exception as exc:
                payload = pickle.dumps((False, exc, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    status = None

    def join():
        nonlocal status
        payload = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0 or not payload:
            ended = f"signal {-status}" if status < 0 else f"exit status {status}"
            raise RuntimeError(f"the child process ended without a result ({ended})")
        ok, value, text = pickle.loads(payload)
        if not ok:
            raise value from _ChildTraceback(text)
        return value

    try:
        yield join
    finally:
        pipe.close()
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_canring(args) -> tuple[int, dict, list[str]]:
    pipe = _pipeline(args.instance, args.max_degree)
    expected = pipe.instance.expected
    # the map checks read no generator, reference-image or relation cache,
    # so they run beside the stages that fill those caches: in a child
    # process where `_in_child` may fork one, and otherwise first, before
    # the caches fill
    with _in_child(lambda: (pipe.tricanonical(), pipe.fourcanonical(),
                            _base_loci(pipe))) as join:
        computed = pipe.minimal_generators()
        verified = pipe.verify_reference()["ok"]
        # the Hilbert counts read the relation search's ideal ranks, so it
        # runs at every horizon
        rels = pipe.relations()
        hilbert = pipe.hilbert_consistency()
        tri, four, base = join()

    # below the largest expected generator degree the horizon cannot see
    # every generator, so neither the profile nor the codimension is decided
    top = max(expected.get("generator_degrees") or [0])

    def within_horizon(name: str, stated, got, detail: str) -> list[dict]:
        if pipe.max_degree < top:
            return [_skip(name, f"max degree below {top}")]
        return _expect(name, stated, got, detail)

    degrees = [d for _, d in computed]
    codimension = len(computed) - 3
    # below 10 the horizon cannot see every relation, so only the relation
    # report and its profile check are skipped
    if pipe.max_degree < 10:
        reason = "max degree below 10"
        relations = {"status": "SKIPPED", "reason": reason}
        relation_checks = [_skip("relation-profile", reason)]
        relation_line = f"relations: SKIPPED ({reason})"
    else:
        counts, total = rels.counts(), len(rels.relations)
        relations = {"counts": _str_keys(counts), "total": total, "horizon": pipe.max_degree,
                     "polynomials": [format_poly(p) for p, _ in rels.relations]}
        relation_checks = _expect("relation-profile", expected.get("relation_degrees"),
                                  relations["counts"], f"total {total}")
        relation_line = ("relation counts: " + " ".join(f"{d}:{counts[d]}" for d in sorted(counts))
                         + f" (total {total})")
    checks = [*within_horizon("generator-profile", expected.get("generator_degrees"),
                              degrees, "degrees " + ",".join(map(str, degrees))),
              _check("reference-generators", verified, "membership and graded spans"),
              *relation_checks,
              _check("hilbert-consistency", all(row["agree"] for row in hilbert),
                     f"m=0..{pipe.max_degree}"),
              *within_horizon("codimension", expected.get("codimension"),
                              codimension, str(codimension))]
    reference = pipe.reference_generators
    doc = {
        "instance": pipe.instance.name,
        "max_degree": pipe.max_degree,
        "generators": {
            "computed": {"degrees": degrees,
                         "polynomials": [format_poly(p) for p, _ in computed]},
            "reference": {"degrees": [d for _, d in reference],
                          "polynomials": [format_poly(p) for p, _ in reference],
                          "verified": verified},
        },
        "relations": relations,
        "hilbert": hilbert,
        "codimension": codimension,
        "tricanonical": {"kernel_dimensions": _str_keys(tri["kernel_dimensions"]),
                         **{key: tri.get(key) for key in
                            ("assignment", "form", "substitution_vanishes", "status")}},
        "base_locus": base,
        "fourcanonical_second_differences":
            [four["second_differences"][d] for d in sorted(four["second_differences"])],
        "checks": checks,
    }
    lines = [f"instance: {pipe.instance.name}", f"max degree: {pipe.max_degree}",
             "generator degrees: " + " ".join(map(str, degrees)), relation_line,
             *_check_lines(checks)]
    return _code_for(checks), doc, lines


# -- verify --------------------------------------------------------------


def _run_verify_tricanonical(pipe: Pipeline) -> tuple[int, dict, list[str]]:
    report = pipe.tricanonical()
    doc = {**report, "kernel_dimensions": _str_keys(report["kernel_dimensions"]),
           "target": "tricanonical"}
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
    reports = _base_loci(pipe)
    checks = []
    for m in _BASE_LOCUS_DEGREES:
        report = reports[f"m{m}"]
        if report["verdict"] == "UNDECIDED":
            checks.append({"name": f"base-locus-m{m}", "status": "UNDECIDED",
                           "detail": f"bound {report['bound']}"})
        else:
            checks += _expect(f"base-locus-m{m}", expected.get(str(m)), report["verdict"],
                              f"verdict {report['verdict']}")
    doc = {"target": "base-locus", "reports": reports, "checks": checks}
    lines = [f"m={m}: {reports[f'm{m}']['verdict']}" for m in _BASE_LOCUS_DEGREES]
    lines.extend(_check_lines(checks))
    return _code_for(checks), doc, lines


def _run_verify_fourcanonical(pipe: Pipeline) -> tuple[int, dict, list[str]]:
    report = pipe.fourcanonical()
    want = pipe.instance.expected.get("fourcanonical_second_difference")
    second = report["second_differences"]
    checks = []
    for d in sorted(second):
        checks += _expect(f"second-difference-d{d}", want, second[d],
                          f"got {second[d]}, expected {want}")
    doc = {"target": "fourcanonical",
           "h": _str_keys(report["h"]),
           "second_differences": _str_keys(second),
           "expected_second_difference": want,
           "checks": checks}
    lines = ["hilbert: " + " ".join(f"{d}:{report['h'][d]}"
                                    for d in sorted(report["h"]))]
    lines.append("second differences: " + " ".join(f"{d}:{second[d]}" for d in sorted(second)))
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
    from . import topology as topology_mod

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
    homology = expected.get("glued_homology")
    checks = [*_expect("chain-homology", homology, doc["chain_homology"],
                       " ".join(doc["chain_homology_names"])),
              *_expect("mayer-vietoris", homology, doc["mayer_vietoris"],
                       "agrees with chain model"),
              *_expect("abelianization", expected.get("abelianization_trivial"),
                       abelian.is_trivial, abelian.describe()),
              *_expect("presentation-trivial", expected.get("presentation_trivializes"),
                       certificate["status"] == "TRIVIAL" and replay_ok,
                       f"{len(certificate['steps'])} steps")]
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
    from . import defcalc as defcalc_mod

    data = defcalc_mod.load_defcalc_data(args.instance)
    checks = []
    results = []
    for config, expected in zip(data["configs"], data["expected_degrees"]):
        degrees = defcalc_mod.t1_degrees(config)
        entry = {"config": config["name"], "degrees": degrees}
        if expected is not None:
            entry["expected"] = expected
        checks += _expect(f"degrees-{config['name']}", expected, degrees,
                          " ".join(f"{k}:{v}" for k, v in sorted(degrees.items())))
        results.append(entry)
    bounds = []
    for case in data["section_bounds"]:
        got = defcalc_mod.section_bound(case["degree"], case["arithmetic_genus"])
        bounds.append({"degree": case["degree"],
                       "arithmetic_genus": case["arithmetic_genus"],
                       "bound": got})
        checks += _expect(f"section-bound-{case['degree']}-{case['arithmetic_genus']}",
                          case.get("expected"), got, f"bound {got}")
    doc = {"configs": results, "section_bounds": bounds,
           "deformation_dimension": defcalc_mod.DEL_PEZZO_DEFORMATION_DIMENSION}
    checks += _expect("deformation-dimension", data["deformation_dimension"],
                      defcalc_mod.DEL_PEZZO_DEFORMATION_DIMENSION,
                      str(defcalc_mod.DEL_PEZZO_DEFORMATION_DIMENSION))
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
