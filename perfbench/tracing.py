"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions and methods of the `godeaux`
modules: a function is replaced in every `godeaux` module that holds it,
because modules import by name (`canring` does `from .linalg import
kernel_basis`), and a method is replaced on its class.  Each wrapper records
a span in memory: its call count and its self time, which is its duration
minus the time of the traced calls it made.  Some wrappers also record
counts of the work they were given.  `uninstall` puts the originals back.
Nothing is printed; `run.py` writes the metrics to a file.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# (module, attribute path, metric prefix); the module is where it is defined.
TRACED = [
    ("godeaux.instance", "load_instance", "instance.load_instance"),
    ("godeaux.canring", "Pipeline.precompute_descend", "canring.precompute_descend"),
    ("godeaux.canring", "Pipeline.minimal_generators", "canring.minimal_generators"),
    ("godeaux.canring", "Pipeline.verify_reference", "canring.verify_reference"),
    ("godeaux.canring", "Pipeline.relations", "canring.relations"),
    ("godeaux.canring", "Pipeline.hilbert_consistency", "canring.hilbert_consistency"),
    ("godeaux.canring", "Pipeline.tricanonical", "canring.tricanonical"),
    ("godeaux.canring", "Pipeline.fourcanonical", "canring.fourcanonical"),
    ("godeaux.canring", "Pipeline.base_locus", "canring.base_locus"),
    ("godeaux.linalg", "rref", "linalg.rref"),
    ("godeaux.linalg", "rank_of", "linalg.rank_of"),
    ("godeaux.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("godeaux.linalg", "membership", "linalg.membership"),
    ("godeaux.linalg", "SpanBuilder.insert", "linalg.SpanBuilder.insert"),
    ("godeaux.linalg", "SpanBuilder.contains", "linalg.SpanBuilder.contains"),
    ("godeaux.quotient", "HypersurfaceRing.normal_form", "quotient.HypersurfaceRing.normal_form"),
    ("godeaux.quotient", "HypersurfaceRing.coefficient_vector",
     "quotient.HypersurfaceRing.coefficient_vector"),
    ("godeaux.residue", "CurveElement.coordinate_vector", "residue.CurveElement.coordinate_vector"),
    ("godeaux.residue", "TauSubring.basis_vectors", "residue.TauSubring.basis_vectors"),
    ("godeaux.poly", "evaluate", "poly.evaluate"),
    ("godeaux.poly", "Poly.__mul__", "poly.Poly.__mul__"),
]


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return x.bit_length() if isinstance(x, int) else 0


def _max_bits(rows) -> int:
    return max((_bits(x) for row in rows for x in row), default=0)


def _matrix(rows, ncols):
    rows = list(rows)
    return len(rows), len(rows) * ncols, _max_bits(rows)


# Work measures: (args, result) -> (rows, cells, bit length seen).
def _rref_work(args, result):
    rows, cells, bits = _matrix(args[0], args[1])
    return rows, cells, max(bits, _max_bits(result.rows))


def _rank_work(args, result):
    return _matrix(args[0], args[1])


def _kernel_work(args, result):
    rows, cells, bits = _matrix(args[0], args[1])
    return rows, cells, max(bits, _max_bits(result))


def _membership_work(args, result):
    target, vectors = args[0], list(args[1])
    bits = max(_max_bits(vectors), _max_bits([target]), _max_bits([result or []]))
    return len(vectors), len(vectors) * len(target), bits


def _span_insert_work(args, result):
    span, row = args[0], args[1]
    stored = [span.rows[result]] if result is not None else []
    return 1, span.width, max(_max_bits([row]), _max_bits(stored))


def _span_contains_work(args, result):
    return 1, args[0].width, _max_bits([args[1]])


WORK = {
    "linalg.rref": _rref_work,
    "linalg.rank_of": _rank_work,
    "linalg.kernel_basis": _kernel_work,
    "linalg.membership": _membership_work,
    "linalg.SpanBuilder.insert": _span_insert_work,
    "linalg.SpanBuilder.contains": _span_contains_work,
}


class Tracer:
    """In-memory spans and counters for the functions in `TRACED`."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (call at the start of an operation)."""
        self.stats = {prefix: [0, 0.0] for _, _, prefix in TRACED}
        self.work = {name: [0, 0] for name in WORK}
        self.max_bits = 0
        self.useful_inserts = 0
        self.terms_out = 0
        # one child-time accumulator per open span, the bottom one for the caller
        self._stack = [0.0]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, path, prefix in TRACED:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self._wrap(prefix, original))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(prefix, original)
                for name, mod in list(sys.modules.items()):
                    if name == "godeaux" or name.startswith("godeaux."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._replace(mod, attr, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- recording --------------------------------------------------------

    def _wrap(self, prefix: str, fn):
        work = WORK.get(prefix)
        clock = self._clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                entry = tracer.stats[prefix]
                entry[0] += 1
                entry[1] += elapsed - child
            tracer._measure(prefix, work, args, result)
            # the caller's self time excludes this call and its measuring
            stack[-1] += clock() - start
            return result

        return traced

    def _measure(self, prefix, work, args, result) -> None:
        if work is not None:
            rows, cells, bits = work(args, result)
            acc = self.work[prefix]
            acc[0] += rows
            acc[1] += cells
            if bits > self.max_bits:
                self.max_bits = bits
            if prefix == "linalg.SpanBuilder.insert" and result is not None:
                self.useful_inserts += 1
        elif prefix == "quotient.HypersurfaceRing.normal_form":
            self.terms_out += len(result.coeffs)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        out: dict[str, float] = {}
        for _, _, prefix in TRACED:
            calls, self_s = self.stats[prefix]
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
        for name, (rows, cells) in self.work.items():
            out[f"{name}.rows"] = rows
            out[f"{name}.cells"] = cells
        inserts = self.stats["linalg.SpanBuilder.insert"][0]
        out["linalg.SpanBuilder.insert.useful"] = (
            self.useful_inserts / inserts if inserts else 0.0)
        out["linalg.max_bits"] = self.max_bits
        out["quotient.HypersurfaceRing.normal_form.terms_out"] = self.terms_out
        return out
