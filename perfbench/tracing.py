"""Spans and counters recorded from outside suspmix.

``install`` wraps the public functions of the seven suspmix modules, a
few named kernels, ``QVector`` arithmetic, ``QVector.is_positive`` and
``EdgeShift.__init__``.  Each wrapper is installed in every suspmix
module namespace that holds the wrapped function, because ``cli`` and
``decider`` import names directly and would otherwise keep calling the
original.  A span's self time is its duration minus the time of the
spans it encloses; self times are summed per layer (module).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "decider", "special", "roofs", "shift", "exact", "simulate")


class Tracer:
    def __init__(self):
        self.open = []  # child time accumulated by each open span
        self.self_s = Counter()  # layer -> seconds
        self.func_self_s = Counter()  # span name -> seconds
        self.calls = Counter()  # span name -> calls
        self.counts = Counter()  # named work counters

    def wrap(self, layer: str, name: str, fn, after=None, before=None):
        """``fn`` recorded as a span of ``layer``.

        ``before(args)`` may replace the positional arguments;
        ``after(counts, args, result)`` updates counters on return.
        """
        clock = time.perf_counter
        stack, self_s, func_self_s, calls, counts = (
            self.open, self.self_s, self.func_self_s, self.calls, self.counts)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                args = before(args)
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s[layer] += own
                func_self_s[name] += own
                calls[name] += 1
            if after is not None:
                after(counts, args, result)
            return result

        return span


def _count(key, amount=lambda args, result: 1):
    def after(counts, args, result):
        counts[key] += amount(args, result)
    return after


def _counts(*afters):
    def after(counts, args, result):
        for a in afters:
            a(counts, args, result)
    return after


def _distinct_sums(counts, args, result):
    counts["decider.distinct_sums"] += len({g.coords for g in result.generators})


def _oracle_answer(counts, args, result):
    counts["special.oracle_calls"] += 1
    counts["special.oracle_accepts"] += bool(result)


# Counters attached to named spans.
AFTER = {
    "exact.span_rank": _counts(_count("exact.rank_calls"),
                               _count("exact.rank_rows", lambda a, r: len(a[0]))),
    "decider.periodic_words_in_cylinder": _count("decider.scan_words", lambda a, r: len(r)),
    "decider.decide_mixing_synchronized": _distinct_sums,
    "decider.cycle_data": _count("decider.cycle_data_calls"),
    "roofs.birkhoff_sum": _count("roofs.birkhoff_terms", lambda a, r: a[2]),
    "shift.higher_block_recode": _counts(_count("shift.recodes"),
                                         _count("shift.recoded_edges", lambda a, r: len(r[0].edges))),
    "shift.is_transitive": _count("shift.transitivity_checks"),
    "shift.determinize": _count("shift.determinized_states", lambda a, r: len(r.vertices)),
    "simulate.hitting_times": _count("simulate.hits", lambda a, r: len(r.times)),
}


def install(tracer: Tracer) -> None:
    """Wrap suspmix in place; there is no uninstall (use a fresh process)."""
    modules = {layer: importlib.import_module("suspmix." + layer) for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj)):
                continue
            key = "%s.%s" % (layer, name)
            before = _listify if key == "exact.span_rank" else None
            wrapped[obj] = tracer.wrap(layer, key, obj, AFTER.get(key), before)
    _install_oracle_and_kernels(tracer, modules, wrapped)
    for module in [sys.modules["suspmix"], *modules.values()]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])
    _install_methods(tracer, modules)


def _listify(args):
    """Materialize span_rank's vectors once, so the counter can take len()."""
    return (list(args[0]),) + args[1:]


def _oracle_before(tracer):
    """Replace the oracle argument by one whose queries are spans."""
    def before(args):
        oracle = args[0]
        return (dataclasses.replace(
            oracle,
            is_admissible=_oracle_span(tracer, oracle.is_admissible),
            periodic_admissible=_oracle_span(tracer, oracle.periodic_admissible),
        ),) + args[1:]
    return before


def _oracle_span(tracer, fn):
    layer = getattr(fn, "__module__", "suspmix.special").rpartition(".")[2]
    return tracer.wrap(layer if layer in LAYERS else "special", "oracle", fn, _oracle_answer)


def _install_oracle_and_kernels(tracer, modules, wrapped):
    decider, roofs, simulate = modules["decider"], modules["roofs"], modules["simulate"]
    scan = decider.periodic_words_in_cylinder
    wrapped[scan] = tracer.wrap("decider", "decider.periodic_words_in_cylinder", scan,
                                AFTER["decider.periodic_words_in_cylinder"], _oracle_before(tracer))

    # the harmonic roof's numpy path is an attribute of the returned roof
    harmonic = roofs.example_roof_harmonic

    def wrap_vectorized(counts, args, roof):
        if roof.vectorized is not None:
            roof.vectorized = tracer.wrap("roofs", "roofs.vectorized", roof.vectorized,
                                          _count("roofs.vectorized_symbols", lambda a, r: len(a[0])))
    wrapped[harmonic] = tracer.wrap("roofs", "roofs.example_roof_harmonic", harmonic, wrap_vectorized)

    # simulator kernels: roof evaluation along a member (the roof layer's
    # work, on the numpy or the per-index QVector path) and symbol arrays
    def table_symbols(counts, args, result):
        if getattr(args[0], "vectorized", None) is None:
            counts["roofs.table_symbols"] += args[3]

    simulate._roof_values = tracer.wrap("roofs", "roofs.evaluate", simulate._roof_values, table_symbols)
    simulate._nonnegative_symbols = tracer.wrap(
        "simulate", "simulate._nonnegative_symbols", simulate._nonnegative_symbols,
        _count("simulate.symbols", lambda a, r: len(r)))


def _install_methods(tracer, modules):
    qvector = modules["exact"].QVector
    ops = _count("exact.qvector_ops")
    for name in ("__add__", "__sub__", "__neg__", "scale", "__mul__", "__rmul__"):
        setattr(qvector, name, tracer.wrap("exact", "exact.QVector." + name, vars(qvector)[name], ops))
    qvector.is_positive = tracer.wrap("exact", "exact.QVector.is_positive", qvector.is_positive,
                                      _count("exact.sign_tests"))
    edge_shift = modules["shift"].EdgeShift
    edge_shift.__init__ = tracer.wrap("shift", "shift.EdgeShift.__init__", edge_shift.__init__,
                                      _count("shift.graph_builds"))
