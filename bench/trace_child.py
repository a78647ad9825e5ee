"""Run one `matform` command with spans around the public functions of each
layer, then print a span summary as the last line of stderr.

Usage: PYTHONPATH=src python bench/trace_child.py <matform argv...>

Spans stay in memory while the command runs and are summarised when it
ends, including when it ends by an exception.  Per-point helpers whose
wrapper cost would swamp them (`Polynomial.eval_vector`, `__add__`) are not
wrapped; `linstruct.matrix_of` and `catalog.evaluate` cover that path.

The summary also carries `overhead_s`, the time tracing added to this
process: installing the wrappers, calibrating them, the spans recorded
times the measured cost of one wrapper call, and building the summary.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

MARK = "BENCH-SPANS "


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counters = defaultdict(int)

    def wrap(self, name, fn, after=None):
        """`fn` recording one span per call; `after(tracer, args, result)`
        adds counters once the span has ended."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds (total minus
        the time of child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - inner
        return {"spans": dict(out), "counters": dict(self.counters)}


def _replace(orig, new):
    """Point every name matform looks `orig` up by at `new`: module
    globals, `from x import f` copies and class attributes (aliases such as
    `__rmul__ = __mul__` included)."""
    count = 0
    modules = [m for k, m in sys.modules.items()
               if k == "matform" or k.startswith("matform.")]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
                count += 1
            elif isinstance(value, type) and value.__module__.startswith("matform"):
                for attr, member in list(vars(value).items()):
                    if member is orig:
                        setattr(value, attr, new)
                        count += 1
    if not count:
        raise RuntimeError(f"nothing to patch for {orig!r}")


def _after_mul(t, args, result):
    a, b = args
    size_b = len(b.terms) if hasattr(b, "terms") else int(b != 0)
    t.counters["polyring.mul.term_pairs"] += len(a.terms) * size_b


def _after_det(t, args, result):
    t.counters["polyring.det.out_terms"] += len(result.terms)
    stack, spans = t.stack, t.spans
    if stack and spans[stack[-1]][0] == "linstruct.form":
        t.counters["linstruct.form.dets"] += 1


def _after_verify(t, args, result):
    method = getattr(result, "method", None)
    if method is not None:
        t.counters[f"compose.route.{method}"] += 1


def _after_sequence(t, args, result):
    t.counters["dioph.sequence.iterates"] += len(result.solutions)
    bits = max((abs(c).bit_length() for v in result.solutions for c in v),
               default=0)
    t.counters["dioph.sequence.max_bits"] = max(
        t.counters["dioph.sequence.max_bits"], bits)


def _after_search(t, args, result):
    from matform import catalog
    fam, bound = args[0], args[1]
    h = fam.h if hasattr(fam, "h") else catalog.family(fam).h
    t.counters["dioph.search.points"] += (2 * int(bound) + 1) ** h
    t.counters["dioph.search.hits"] += len(result)


def install(tracer: Tracer):
    from matform import catalog, cli, compose, dioph, linstruct, polyring

    P, M = polyring.Polynomial, polyring.PolyMatrix
    L, F = linstruct.LinearStructure, catalog.FormFamily
    plain = [
        ("polyring.mul", P.__mul__, _after_mul),
        ("polyring.substitute", P.substitute, None),
        ("polyring.det", M.determinant, _after_det),
        ("polyring.matmul", M.__matmul__, None),
        ("polyring.int_det", polyring.int_matrix_determinant, None),
        ("linstruct.closure", L.verify_pair_closure, None),
        ("linstruct.closure", L.verify_triple_closure, None),
        ("linstruct.instantiate", L.instantiate, None),
        ("linstruct.extract", L.extract_coordinates, None),
        ("linstruct.specialize", L.specialize, None),
        ("linstruct.form", L.form, None),
        ("linstruct.matrix_of", L.matrix_of, None),
        ("compose.verify", compose.verify_identity, _after_verify),
        ("compose.apply", compose.MultilinearMap.apply, None),
        ("compose.invert", compose.invert, None),
        ("catalog.family", catalog.family, None),
        ("catalog.triple_map", F.triple_map, None),
        ("catalog.evaluate", F.evaluate, None),
        ("dioph.sequence", dioph.generate_sequence, _after_sequence),
        ("dioph.search", dioph.brute_force_search, _after_search),
        ("cli.main", cli.main, None),
    ]
    for name, fn, after in plain:
        _replace(fn, tracer.wrap(name, fn, after))
    for name, attr in (("catalog.form", "form"), ("catalog.pair_map", "pair_map")):
        prop = vars(F)[attr]
        _replace(prop, property(tracer.wrap(name, prop.fget)))
    from_forms = vars(compose.MultilinearMap)["from_forms"]
    _replace(from_forms,
             classmethod(tracer.wrap("compose.from_forms", from_forms.__func__)))


def span_cost(calls: int = 5000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op."""
    def noop():
        pass

    wrapped = Tracer().wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def main(argv) -> int:
    from matform import cli
    start = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    per_span = span_cost()
    setup = time.perf_counter() - start
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        t0 = time.perf_counter()
        summary = tracer.summary()
        summary["overhead_s"] = (setup + len(tracer.spans) * per_span
                                 + time.perf_counter() - t0)
        sys.stderr.write(MARK + json.dumps(summary) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
