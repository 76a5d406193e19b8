"""Outside-in layer tracing for the benchmark.

The tracer replaces module attributes of ``surfcodes`` with timing wrappers,
so calls made inside a module through its own globals (``codes.build_code``
calling ``rational_points``) are caught as well as calls from the benchmark.
Each call becomes a span ``(id, parent, name, start, end, raised, work)``;
parent ids come from a call stack, and ``summarize`` turns the spans into
per-name totals with inclusive (busy) and self time.

A target whose attribute no longer exists is recorded as absent instead of
failing the run, so a later refactor that removes a function only empties
that layer's figures.
"""

from __future__ import annotations

import functools
import importlib
import time


def _messages(code, *args, **kwargs):
    q = code.field.q
    return (q ** code.k - 1) // (q - 1)


def _cells(rows, ncols, *args, **kwargs):
    return len(rows) * ncols


# (module, attribute path, span name, work counter or None)
TARGETS = (
    ("surfcodes.gf", "FieldSpec.__init__", "gf.field_build", None),
    ("surfcodes.gf", "FieldSpec.numpy_tables", "gf.numpy_tables", None),
    ("surfcodes.gf", "poly_factor", "gf.poly_factor", None),
    ("surfcodes.gf", "poly_pow_mod", "gf.poly_pow_mod", None),
    ("surfcodes.codes", "rational_points", "codes.rational_points", None),
    ("surfcodes.codes", "build_code", "codes.build_code", None),
    ("surfcodes.codes", "load_code", "codes.load_code", None),
    ("surfcodes.codes", "exact_min_distance", "codes.exact_min_distance", _messages),
    ("surfcodes.surfaces", "ampleness_flags", "surfaces.ampleness_flags", None),
    ("surfcodes.bounds", "parameter_report", "bounds.parameter_report", None),
    ("surfcodes.towers", "hyperelliptic_point_count",
     "towers.hyperelliptic_point_count", None),
    ("surfcodes.towers", "two_torsion_frobenius", "towers.two_torsion_frobenius", None),
    ("surfcodes.towers", "tensor_invariant_dim", "towers.tensor_invariant_dim", None),
    ("surfcodes.towers", "hyperelliptic_product_certificate", "towers.certificate", None),
    ("surfcodes.towers", "search_parameters", "towers.search", None),
    ("surfcodes.f2", "rank", "f2.rank", _cells),
    ("surfcodes.asymptotic", "emit_diagram", "asymptotic.emit_diagram", None),
)


# per-name totals kept by summarize and merge
FIELDS = ("calls", "raised", "busy", "self", "work", "raised_in_search")


class Tracer:
    """Span recorder; spans stay in memory until summarized."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.children: dict = {}        # merged summaries of child processes

    # -- spans -----------------------------------------------------------

    def span(self, name: str, work: int, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given name."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [sid, parent, name, time.perf_counter(), 0.0, False, work]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[5] = True
            raise
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Record a span that ended now and was timed by the caller."""
        now = time.perf_counter()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([len(self.spans), parent, name, now - seconds, now,
                           False, 0])

    def add_child(self, summary: dict, absent=()) -> None:
        """Merge the span summary of a child process (or a figure measured
        around one) into this run's."""
        merge(self.children, summary)
        self.absent += [name for name in absent if name not in self.absent]

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = counter(*args, **kwargs) if counter is not None else 0
            return tracer.span(name, work, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        for modname, path, name, counter in TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                owner = None
            *heads, attr = path.split(".")
            for head in heads:
                owner = getattr(owner, head, None)
            # look in the owner's own namespace so class attributes are
            # restored exactly, and inherited ones are not shadowed
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def summarize(spans) -> dict:
    """Per span name: calls, raised, busy (inclusive time of calls not nested
    in a call of the same name), self time, work, and calls that raised
    inside a tower search."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out: dict[str, dict] = {}
    for sid, parent, name, t0, t1, raised, work in spans:
        agg = out.setdefault(name, dict.fromkeys(FIELDS, 0))
        dur = t1 - t0
        agg["calls"] += 1
        agg["work"] += work
        agg["self"] += dur - child_time.get(sid, 0.0)
        nested_same = False
        in_search = False
        p = parent
        while p >= 0:
            anc = by_id[p]
            nested_same |= anc[2] == name
            in_search |= anc[2] == "towers.search"
            p = anc[1]
        if not nested_same:
            agg["busy"] += dur
        if raised:
            agg["raised"] += 1
            agg["raised_in_search"] += in_search
    return out


def merge(total: dict, part: dict) -> None:
    """Add one summary into another, name by name."""
    for name, agg in part.items():
        dst = total.setdefault(name, dict.fromkeys(FIELDS, 0))
        for k, v in agg.items():
            dst[k] += v
