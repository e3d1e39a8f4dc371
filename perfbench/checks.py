"""Checks of the program's outputs, built apart from the program.

Every claim is re-derived from the shipped instance file, which is parsed
here again, with only `parse_poly`, `evaluate`, `divide` and `det_int` from
the program, plus the benchmark's own integer elimination (`elimination.py`)
to find certificates.  The one thing taken from the program is a basis of
each graded piece R_m that the base-locus certificates index into;
`Reference` checks that basis before using it: every element descends to
the curve, there are as many as Riemann-Roch gives, and they are
independent mod f.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt, lcm

from elimination import echelon
from godeaux.linalg import det_int
from godeaux.poly import Poly, WeightedRing, divide, evaluate, parse_poly

# Invariants of a numerical Godeaux surface: chi = 1, K^2 = 1, p_g = 0.
GENERATOR_COUNT = 13
RELATION_TOTAL = 54
QUARTIC_H = {1: 7, 2: 26, 3: 65}
STABLE_SECOND_DIFFERENCE = 16  # (4K)^2, reached at d = 6
CANRING_CHECKS = {"generator-profile", "reference-generators", "relation-profile",
                  "hilbert-consistency", "codimension"}


def riemann_roch(m: int) -> int:
    """dim R_m = chi + m(m-1)/2 K^2 for m >= 2, with P_0 = 1 and P_1 = p_g = 0."""
    if m == 0:
        return 1
    if m == 1:
        return 0
    return 1 + m * (m - 1) // 2


class CheckError(Exception):
    """An output that cannot even be read the way the check needs."""


def _integral(values) -> list[int]:
    scale = lcm(*(Fraction(c).denominator for c in values)) if values else 1
    return [int(Fraction(c) * scale) for c in values]


class Reference:
    """The shipped instance, parsed apart from the program's loader."""

    def __init__(self, data_path, basis_source):
        with open(data_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        self.expected = raw["expected"]
        self.ring = WeightedRing(raw["ring"]["names"], raw["ring"]["weights"])
        self.modulus = parse_poly(raw["modulus"], self.ring)
        self.reference = [parse_poly(e["polynomial"], self.ring)
                          for e in raw["reference_generators"]]
        self.reference_degrees = [e["degree"] for e in raw["reference_generators"]]
        tri = raw["tricanonical"]
        self.tri_ring = WeightedRing(tri["variables"], [1] * len(tri["variables"]))
        self.tri_gammas = [self.reference[i] for i in tri["generator_indices"]]
        self.tri_reference = parse_poly(tri["reference_form"], self.tri_ring)
        first, second = raw["curve_factors"]
        self.curve = (WeightedRing(first, [1, 1]), WeightedRing(second, [1, 1]))
        self.images = [[parse_poly(pair[k], self.curve[k])
                        for pair in raw["residue_images"]] for k in (0, 1)]
        (u1, u2), (v1, v2) = [[parse_poly(t, self.curve[k]) for k, t in enumerate(pair)]
                              for pair in raw["tau_generators"]]
        a, b = (self.curve[0].variable(i) for i in (0, 1))
        if (u1, v1) != (a, b):
            raise CheckError("descent check needs tau generators (a1, *), (b1, *)")
        self.tau_second = [u2, v2]
        self._basis_source = basis_source
        self._bases: dict[int, list[Poly]] = {}

    def remainder(self, p: Poly) -> Poly:
        return divide(p, [self.modulus])[1]

    def descends(self, g: Poly) -> bool:
        """g restricts into the subring generated by u = (a1, u2), v = (b1, v2):
        its first component F1, read as a form in u and v, must give the
        second component, F1(u2, v2) = F2."""
        f1, f2 = (evaluate(g, self.images[k], self.curve[k].zero(), self.curve[k].one())
                  for k in (0, 1))
        return evaluate(f1, self.tau_second, self.curve[1].zero(), self.curve[1].one()) == f2

    def rank(self, polys: list[Poly]) -> int:
        rems = [self.remainder(p).coeffs for p in polys]
        columns = sorted({m for r in rems for m in r})
        return len(echelon([_integral([r.get(m, 0) for m in columns]) for r in rems])[0])

    def basis(self, m: int) -> list[Poly]:
        """The program's basis of R_m, after checking that it is one."""
        if m not in self._bases:
            polys = list(self._basis_source(m))
            if len(polys) != riemann_roch(m):
                raise CheckError(f"R_{m} basis has {len(polys)} elements")
            for g in polys:
                if g.is_zero or not g.is_homogeneous() or g.homogeneous_degree() != m:
                    raise CheckError(f"R_{m} basis element {g} is not of degree {m}")
                if not self.descends(g):
                    raise CheckError(f"R_{m} basis element {g} does not descend")
            if self.rank(polys) != len(polys):
                raise CheckError(f"R_{m} basis is dependent mod f")
            self._bases[m] = polys
        return self._bases[m]


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _guard(check):
    """Turn an unreadable output into a problem instead of a crash."""
    def guarded(*args, **kwargs) -> list[str]:
        try:
            return check(*args, **kwargs)
        except CheckError as exc:
            return [f"{check.__name__}: {exc}"]
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            return [f"{check.__name__}: unreadable output ({type(exc).__name__}: {exc})"]
    guarded.__name__ = check.__name__
    return guarded


# -- tricanonical -----------------------------------------------------------


@_guard
def check_tricanonical(ref: Reference, report: dict) -> list[str]:
    """Kernel dimensions 0 for d = 1..8 and 1 for d = 9, and the degree-9
    form, a multiple of the shipped reference, vanishes on its assignment."""
    problems: list[str] = []
    dims = {int(d): v for d, v in report["kernel_dimensions"].items()}
    _expect(problems, dims == {d: int(d == 9) for d in range(1, 10)},
            f"tricanonical kernel dimensions {dims}")
    _expect(problems, report["status"] == "OK", f"tricanonical status {report['status']}")
    sigma = report["assignment"]
    n = len(ref.tri_gammas)
    if sorted(sigma) != list(range(n)):
        return problems + [f"tricanonical assignment {sigma} is not a permutation"]
    form = parse_poly(report["form"], ref.tri_ring)
    refc = ref.tri_reference.coeffs
    lead = next(iter(refc))
    _expect(problems, not form.is_zero and form.coeffs.keys() == refc.keys()
            and all(form.coeffs[m] * refc[lead] == refc[m] * form.coeffs[lead] for m in refc),
            "tricanonical form is not a multiple of the reference form")
    assigned = [ref.tri_gammas[sigma[i]] for i in range(n)]
    value = evaluate(form, assigned, ref.ring.zero(), ref.ring.one())
    _expect(problems, ref.remainder(value).is_zero,
            "tricanonical form does not vanish on its assignment")
    _expect(problems, report["substitution_vanishes"] is True,
            "tricanonical substitution not reported as vanishing")
    return problems


# -- base locus --------------------------------------------------------------


def _irreducible(mu: Poly) -> bool:
    """Irreducibility over Q of a polynomial in one variable of degree <= 2."""
    coeffs = {m[0]: Fraction(c) for m, c in mu.coeffs.items()}
    deg = max(coeffs)
    if deg == 1:
        return True
    if deg != 2:
        raise CheckError(f"cannot check irreducibility in degree {deg}")
    disc = coeffs.get(1, 0) ** 2 - 4 * coeffs[2] * coeffs.get(0, 0)
    if disc < 0:
        return True
    num, den = disc.numerator, disc.denominator
    return not (_is_square(num) and _is_square(den))


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _witness_holds(ref: Reference, m: int, witness: dict) -> bool:
    tring = WeightedRing(["t"], [1])
    mu = parse_poly(witness["minimal_polynomial"], tring)
    point = [parse_poly(s, tring) for s in witness["point"]]
    if not _irreducible(mu) or all(p.is_zero for p in point):
        return False
    for g in ref.basis(m) + [ref.modulus]:
        value = evaluate(g, point, tring.zero(), tring.one())
        if not divide(value, [mu])[1].is_zero:
            return False
    return True


def _pure_power_holds(ref: Reference, m: int, cert: dict) -> bool:
    gens = ref.basis(m)
    total = ref.ring.zero()
    for term in cert["combination"]:
        mono = parse_poly(term["monomial"], ref.ring)
        total = total + (mono * gens[term["generator"]]).scale(Fraction(term["coefficient"]))
    index = ref.ring.names.index(cert["variable"])
    target = Poly(ref.ring, {tuple(cert["power"] if j == index else 0
                                   for j in range(ref.ring.n)): 1})
    return (target.homogeneous_degree() == cert["degree"]
            and ref.remainder(total - target).is_zero)


@_guard
def check_base_locus(ref: Reference, reports: dict) -> list[str]:
    """Verdicts as shipped; each EMPTY certificate is a pure power of every
    variable in the ideal of R_m mod f; each NONEMPTY witness is a common
    zero of R_m and f over Q(t)/(mu)."""
    problems: list[str] = []
    for m_text, verdict in sorted(ref.expected["base_locus"].items()):
        m = int(m_text)
        report = reports[f"m{m}"]
        if report["verdict"] != verdict:
            problems.append(f"base locus m={m}: {report['verdict']}, expected {verdict}")
            continue
        if verdict == "EMPTY":
            certs = report["certificates"]
            _expect(problems, sorted(c["variable"] for c in certs) == sorted(ref.ring.names),
                    f"base locus m={m}: certificates do not cover every variable")
            for cert in certs:
                _expect(problems, _pure_power_holds(ref, m, cert),
                        f"base locus m={m}: {cert['variable']}^{cert['power']} "
                        "combination does not replay")
        else:
            _expect(problems, report["witness"]["verified"] is True
                    and _witness_holds(ref, m, report["witness"]),
                    f"base locus m={m}: witness does not replay")
    return problems


# -- canring export --------------------------------------------------------


@_guard
def check_canring(ref: Reference, code: int, doc: dict, horizon: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, code == 0, f"canring exit status {code}")
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    _expect(problems, set(statuses) == CANRING_CHECKS
            and all(s == "OK" for s in statuses.values()), f"canring checks {statuses}")
    _expect(problems, doc["max_degree"] == horizon, f"max_degree {doc['max_degree']}")

    rows = doc["hilbert"]
    _expect(problems, [r["degree"] for r in rows] == list(range(horizon + 1)),
            "hilbert degrees")
    for r in rows:
        want = riemann_roch(r["degree"])
        _expect(problems, (r["descend"], r["expected"], r["presentation"]) == (want,) * 3
                and r["agree"] is True, f"hilbert row {r}, Riemann-Roch {want}")

    computed = doc["generators"]["computed"]
    degrees = computed["degrees"]
    _expect(problems, degrees == ref.expected["generator_degrees"]
            and len(degrees) == GENERATOR_COUNT and min(degrees) == 2 and max(degrees) == 5,
            f"generator degrees {degrees}")
    gens = [parse_poly(t, ref.ring) for t in computed["polynomials"]]
    _expect(problems, len(gens) == len(degrees) and all(
        g.is_homogeneous() and g.homogeneous_degree() == d and ref.descends(g)
        for g, d in zip(gens, degrees)), "computed generators do not descend")
    listed = doc["generators"]["reference"]
    _expect(problems, [parse_poly(t, ref.ring) for t in listed["polynomials"]] == ref.reference
            and listed["degrees"] == ref.reference_degrees and listed["verified"] is True,
            "reference generators differ from the shipped list")
    _expect(problems, doc["codimension"] == GENERATOR_COUNT - 3,
            f"codimension {doc['codimension']}")

    problems += _check_relations(ref, doc["relations"], horizon)
    problems += check_tricanonical(ref, doc["tricanonical"])
    problems += check_base_locus(ref, doc["base_locus"])
    return problems


def _check_relations(ref: Reference, rels: dict, horizon: int) -> list[str]:
    """Counts as shipped, the relations of each degree independent, and each
    relation substituted into the reference generators a multiple of f."""
    problems: list[str] = []
    want = ref.expected["relation_degrees"]
    _expect(problems, rels["counts"] == want and rels["total"] == RELATION_TOTAL
            and sum(want.values()) == RELATION_TOTAL and rels["horizon"] == horizon,
            f"relation counts {rels['counts']} total {rels['total']}")
    tring = WeightedRing([f"T{i + 1}" for i in range(len(ref.reference))],
                         ref.reference_degrees)
    by_degree: dict[str, list[Poly]] = {}
    for i, text in enumerate(rels["polynomials"]):
        rel = parse_poly(text, tring)
        if rel.is_zero or not rel.is_homogeneous():
            problems.append(f"relation {i} is zero or not homogeneous")
            continue
        by_degree.setdefault(str(rel.homogeneous_degree()), []).append(rel)
        value = evaluate(rel, ref.reference, ref.ring.zero(), ref.ring.one())
        _expect(problems, ref.remainder(value).is_zero,
                f"relation {i} does not vanish on the reference generators")
    found = {d: len(group) for d, group in by_degree.items()}
    _expect(problems, found == want, f"relation degrees found {found}")
    for d, group in sorted(by_degree.items()):
        columns = sorted({m for rel in group for m in rel.coeffs})
        rank = len(echelon([_integral([rel.coeffs.get(m, 0) for m in columns])
                            for rel in group])[0])
        _expect(problems, rank == len(group),
                f"relations of degree {d}: rank {rank} of {len(group)}")
    return problems


# -- verify commands -------------------------------------------------------


@_guard
def check_verify_tricanonical(ref: Reference, code: int, doc: dict) -> list[str]:
    problems = check_tricanonical(ref, doc)
    _expect(problems, code == 0 and doc["target"] == "tricanonical",
            f"verify tricanonical exit status {code}")
    return problems


@_guard
def check_verify_base_locus(ref: Reference, code: int, doc: dict) -> list[str]:
    problems = check_base_locus(ref, doc["reports"])
    _expect(problems, code == 0 and all(c["status"] == "OK" for c in doc["checks"]),
            f"verify base-locus exit status {code}")
    return problems


@_guard
def check_paper_generators(ref: Reference, code: int, doc: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, code == 0 and doc["ok"] is True and doc["target"] == "paper-generators",
            f"verify paper-generators exit status {code}, ok {doc.get('ok')}")
    _expect(problems, len(doc["members"]) == len(ref.reference)
            and all(e["member"] is True for e in doc["members"]), "paper generator membership")
    _expect(problems, [e["degree"] for e in doc["spans"]] == list(range(2, 13))
            and all(e["spans"] is True and e["dimension"] == riemann_roch(e["degree"])
                    for e in doc["spans"]), "paper generator spans")
    return problems


@_guard
def check_verify_fourcanonical(ref: Reference, code: int, doc: dict,
                               certified: dict[int, int]) -> list[str]:
    """h(1..3) as certified, second differences that follow from h, each
    verdict what its number and the shipped constant give, and the exit
    status what the verdicts give.  The shipped constant is the Veronese
    value 16, so the command exits 1 on correct numbers (FAIL at d = 3 and
    5); that exit passes here, any other mismatch does not."""
    problems: list[str] = []
    h = {int(d): v for d, v in doc["h"].items()}
    second = {int(d): v for d, v in doc["second_differences"].items()}
    want = ref.expected["fourcanonical_second_difference"]
    _expect(problems, doc["target"] == "fourcanonical" and h[0] == 1
            and all(h[d] == certified[d] for d in certified),
            f"fourcanonical h {h}, certified {certified}")
    _expect(problems, sorted(second) == list(range(3, max(h) + 1)) and all(
        second[d] == h[d] - 2 * h[d - 1] + h[d - 2] for d in second),
        f"fourcanonical second differences {second}")
    verdicts = {c["name"]: c["status"] for c in doc["checks"]}
    _expect(problems, doc["expected_second_difference"] == want and verdicts == {
        f"second-difference-d{d}": "OK" if v == want else "FAIL" for d, v in second.items()},
        f"verify fourcanonical verdicts {verdicts}")
    _expect(problems, code == (1 if "FAIL" in verdicts.values() else 0),
            f"verify fourcanonical exit status {code}, verdicts {verdicts}")
    return problems


@_guard
def check_fourcanonical(ref: Reference, report: dict, certified: dict[int, int]) -> list[str]:
    """`Pipeline.fourcanonical(d_max=6)`: h(1..3) as certified, second
    differences consistent with h, and (4K)^2 = 16 at d = 6."""
    problems: list[str] = []
    h = report["h"]
    _expect(problems, h[0] == 1 and all(h[d] == certified[d] for d in certified),
            f"fourcanonical h {h}, certified {certified}")
    second = report["second_differences"]
    _expect(problems, sorted(second) == list(range(3, 7)) and all(
        second[d] == h[d] - 2 * h[d - 1] + h[d - 2] for d in second),
        f"fourcanonical second differences {second}")
    _expect(problems, second.get(6) == STABLE_SECOND_DIFFERENCE,
            f"fourcanonical second difference at d=6 is {second.get(6)}")
    return problems


# -- the quartic rank certificate -----------------------------------------


def _quartic_products(ref: Reference, d: int):
    quartics = ref.basis(4)
    qring = WeightedRing([f"q{i}" for i in range(len(quartics))], [1] * len(quartics))
    monos = []
    for combo in combinations_with_replacement(range(len(quartics)), d):
        exps = [0] * len(quartics)
        for i in combo:
            exps[i] += 1
        monos.append(tuple(exps))

    def reduce(p: Poly) -> Poly:
        return ref.remainder(evaluate(p, quartics, ref.ring.zero(), ref.ring.one()))

    return qring, monos, reduce


def rank_certificate(ref: Reference, d: int) -> dict:
    """Claimed dimension of the degree-d piece of the subalgebra generated by
    R_4: the rows and columns of a nonsingular minor of the product
    remainders mod f, and a relation for each other product."""
    qring, monos, reduce = _quartic_products(ref, d)
    remainders = [reduce(Poly(qring, {b: 1})).coeffs for b in monos]
    columns = sorted({m for r in remainders for m in r})
    matrix = [_integral([r.get(m, 0) for m in columns]) for r in remainders]
    rows, cols, relations = echelon(matrix)
    return {"rows": [monos[i] for i in rows], "columns": [columns[j] for j in cols],
            "relations": [{monos[i]: c for i, c in rel.items()} for rel in relations]}


def replay_rank_certificate(ref: Reference, d: int, cert: dict):
    """The certified dimension, or None.  A nonzero minor of the remainders
    (which are supported on monomials independent in S/f) bounds it below;
    independent relations that substitute to multiples of f bound it above."""
    qring, monos, reduce = _quartic_products(ref, d)
    rows, relations = cert["rows"], cert["relations"]
    if not all(set(v) <= set(monos) for v in [rows, *relations]) or len(set(rows)) != len(rows):
        return None
    remainders = [reduce(Poly(qring, {b: 1})).coeffs for b in rows]
    minor = [_integral([r.get(m, 0) for m in cert["columns"]]) for r in remainders]
    if len(cert["columns"]) != len(rows) or det_int(minor) == 0:
        return None
    free = [b for b in monos if b not in rows]
    if len(relations) != len(free):
        return None
    if free and det_int([[rel.get(b, 0) for b in free] for rel in relations]) == 0:
        return None
    if any(not reduce(Poly(qring, rel)).is_zero for rel in relations):
        return None
    return len(rows)


def certified_quartic_h(ref: Reference) -> tuple[dict[int, int], list[str]]:
    certified = {d: replay_rank_certificate(ref, d, rank_certificate(ref, d))
                 for d in QUARTIC_H}
    problems = [] if certified == QUARTIC_H else [f"certified quartic h {certified}"]
    return certified, problems
