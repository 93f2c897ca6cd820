"""Span tracing for the benchmark's traced mode.

``Tracer.install`` wraps the library's layer entry points (module functions
and the arithmetic methods of ``Poly`` and the graded elements) from the
outside, and ``uninstall`` puts the originals back; nothing in ``src/``
knows about it.  Each call becomes a span (id, parent, name, thread, start,
end) kept in memory and written out by ``write_spans``.

A span's self time is its duration minus the part covered by its children.
Children in the same thread nest, so their durations add up.  The sweep's
pool threads have no span of their own to nest in; their outermost spans
take the innermost open span of the installing thread (the sweep) as parent,
and since those children overlap each other, the parent subtracts the union
of their intervals.
"""

from __future__ import annotations

import itertools
import sys
import threading
from array import array
from time import perf_counter

MAX_SPANS_PER_THREAD = 250_000  # about 8 MB of spans per thread; counts stay exact


class _Recorder:
    """Per-thread state, so no two threads write the same counter."""

    def __init__(self, thread_index):
        self.thread = thread_index
        self.stack = []
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.counters = {}
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.dropped = 0


def _union_length(intervals, lo, hi):
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def _count_mul(c, args, result):
    other = args[1]
    pairs = len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1)
    c["term_pairs"] = c.get("term_pairs", 0) + pairs


def _count_sigma(c, args, result):
    c["terms_in"] = c.get("terms_in", 0) + len(args[0].terms)


def _count_weyl_mul(c, args, result):
    other = args[1]
    pairs = args[0].mass() * (other.mass() if hasattr(other, "mass") else 1)
    c["component_pairs"] = c.get("component_pairs", 0) + pairs


def _count_parse(c, args, result):
    c["chars"] = c.get("chars", 0) + len(args[0])


def _count_factor(c, args, result):
    c["input_degree_sum"] = c.get("input_degree_sum", 0) + args[0].degree
    c["factors_out"] = c.get("factors_out", 0) + len(result.factors)


def _count_generator(c, args, result):
    certs = len(result.infeasible_divisors)
    c["divisors_tried"] = c.get("divisors_tried", 0) + certs + 1
    c["certificates"] = c.get("certificates", 0) + certs


def _count_sweep(c, args, result):
    c["cells"] = c.get("cells", 0) + len(result.cells)
    c["empty"] = c.get("empty", 0) + len(result.empty_cells())


# the extra counters each layer's count function fills, zero until called
COUNTERS = {
    "polynomials.mul": ("term_pairs",),
    "polynomials.sigma": ("terms_in",),
    "weyl.mul": ("component_pairs",),
    "parser.parse": ("chars",),
    "factor.factor_poly": ("input_degree_sum", "factors_out"),
    "centralizer.generator": ("divisors_tried", "certificates"),
    "certify.sweep": ("cells", "empty"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._recorders = []
        self._ids = itertools.count(1)
        self._owner = None
        self._undo = []

    def _recorder(self):
        rec = getattr(self._local, "rec", None)
        if rec is None:
            with self._lock:
                rec = _Recorder(len(self._recorders))
                self._recorders.append(rec)
            self._local.rec = rec
        return rec

    def _wrap(self, name, fn, count):
        index = len(self.names)
        self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._recorder()
            stack = rec.stack
            cross = False
            if stack:
                parent = stack[-1]
            else:
                parent = None
                owner = tracer._owner
                if owner is not None and owner is not stack:
                    try:
                        parent, cross = owner[-1], True
                    except IndexError:
                        pass
            # frame: [span id, child time, cross-thread child intervals]
            frame = [next(tracer._ids), 0.0, [] if stack is tracer._owner else None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                covered = frame[1]
                if frame[2]:
                    covered += _union_length(frame[2], start, end)
                stat = rec.stats.get(name)
                if stat is None:
                    stat = rec.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration - covered
                stat[2] += duration
                if parent is not None:
                    if cross:
                        parent[2].append((start, end))
                    else:
                        parent[1] += duration
                if len(rec.ids) < MAX_SPANS_PER_THREAD:
                    rec.ids.append(frame[0])
                    rec.parents.append(parent[0] if parent is not None else 0)
                    rec.names.append(index)
                    rec.starts.append(start)
                    rec.ends.append(end)
                else:
                    rec.dropped += 1
            if count is not None:
                counters = rec.counters.setdefault(name, {})
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the layer entry points; the calling thread owns cross-thread spans."""
        from weylalg import certify, centralizer, factor, parser, polynomials, tame, weyl

        self._owner = self._recorder().stack
        methods = [
            ("polynomials.mul", polynomials.Poly, "__mul__", _count_mul),
            ("polynomials.sigma", polynomials.Poly, "sigma", _count_sigma),
            ("polynomials.divmod", polynomials.Poly, "__divmod__", None),
            ("weyl.mul", weyl.GradedElement, "__mul__", _count_weyl_mul),
            ("weyl.pow", weyl.GradedElement, "__pow__", None),
        ]
        for name, cls, attr, count in methods:
            original = cls.__dict__[attr]
            wrapper = self._wrap(name, original, count)
            for alias, value in list(cls.__dict__.items()):
                if value is original:  # e.g. Poly.__rmul__ = __mul__
                    self._undo.append((cls, alias, value))
                    setattr(cls, alias, wrapper)
        functions = [
            ("parser.parse", parser, "parse", _count_parse),
            ("parser.normalize", parser, "normalize", None),
            ("tame.apply_auto", tame, "apply_auto", None),
            ("certify.certify_pair", certify, "certify_pair", None),
            ("certify.sweep", certify, "impossibility_sweep", _count_sweep),
            ("factor.factor_poly", factor, "factor_poly", _count_factor),
            ("centralizer.generator", centralizer, "centralizer_generator", _count_generator),
        ]
        modules = [m for key, m in sys.modules.items() if key == "weylalg" or key.startswith("weylalg.")]
        for name, module, attr, count in functions:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            # rebind every import of the function, so internal calls are seen too
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, alias, value))
                        setattr(mod, alias, wrapper)

    def uninstall(self):
        for target, alias, value in reversed(self._undo):
            setattr(target, alias, value)
        self._undo.clear()
        self._owner = None

    # -- results -----------------------------------------------------------

    def layers(self):
        """{name: {"calls", "self_s", "total_s", extra counters...}} over all threads."""
        out = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, **dict.fromkeys(COUNTERS.get(name, ()), 0)}
            for name in self.names
        }
        for rec in self._recorders:
            for name, (calls, self_s, total_s) in rec.stats.items():
                row = out[name]
                row["calls"] += calls
                row["self_s"] += self_s
                row["total_s"] += total_s
            for name, counters in rec.counters.items():
                for key, value in counters.items():
                    out[name][key] = out[name].get(key, 0) + value
        return out

    def write_spans(self, path):
        """Write every kept span; return the header that describes the file.

        Per thread, in header order: ``count`` span ids (int64), parent ids
        (int64, 0 for none), name indexes (uint16), starts and ends (float64
        ``perf_counter`` seconds).
        """
        header = {"names": list(self.names), "threads": []}
        with open(path, "wb") as fh:
            for rec in self._recorders:
                header["threads"].append({"thread": rec.thread, "count": len(rec.ids), "dropped": rec.dropped})
                for column in (rec.ids, rec.parents, rec.names, rec.starts, rec.ends):
                    column.tofile(fh)
        return header
