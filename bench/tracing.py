"""In-memory spans and call counts around paulisq's public functions.

A traced pass replaces selected functions and methods with wrappers, in
every ``paulisq`` module namespace that binds them, and restores the
originals afterwards.  Coarse functions get a span (name, start, end,
parent span, item id, attributes); hot functions (``contains``,
``pauli_product``, ``commutes``, ``f_value``) only bump a counter, so that
tracing stays cheap.  The benchmark's own code opens further spans with
:meth:`Tracer.span`.  An untraced pass installs nothing.

:func:`layer_metrics` turns the spans and counts into the per-layer metrics
named in ``BENCHMARK.json``.  A layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager

# span record layout
NAME, START, END, PARENT, ITEM, ATTRS, COUNTS = range(7)

SIZES = (6, 8, 10, 12)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def open(self, name: str, attrs: dict) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item, attrs, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself; a no-op while disabled."""
        if not self.enabled:
            yield
            return
        index = self.open(name, attrs)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            index = self.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after:
                attrs.update(after(result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack:
                record = spans[stack[-1]]
                if record[COUNTS] is None:
                    record[COUNTS] = Counter()
                record[COUNTS][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every span target and every COUNT_TARGETS entry; targets that no longer
        exist are listed in ``missing`` and their metrics read zero."""
        for module_name, path, name, before, after in _span_targets():
            self._replace(module_name, path, lambda fn, n=name, b=before, a=after: self._span_wrapper(n, fn, b, a))
        for module_name, path, name in COUNT_TARGETS:
            self._replace(module_name, path, lambda fn, n=name: self._count_wrapper(n, fn))
        self.enabled = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.enabled = False

    def _replace(self, module_name, path, make):
        module = importlib.import_module(f"paulisq.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"paulisq.{module_name}.{path}")
            return
        wrapper = make(original)
        if owner_name:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: rebind it wherever a paulisq module imported it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "paulisq" or mod_name.startswith("paulisq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def write(self, path: str, header: dict) -> None:
        rows = [
            {
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "parent": s[PARENT],
                "item": s[ITEM],
                "attrs": s[ATTRS],
                "counts": dict(s[COUNTS]) if s[COUNTS] else {},
            }
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "counts": dict(self.counts), "spans": rows}, fh, default=str)


# ---------------------------------------------------------------------------
# what gets wrapped


def _n_of_first(*args, **kwargs):
    first = args[0]
    return {"n": first if isinstance(first, int) else first.n}


def _inner_product_attrs(rho, sigma, d, mode=None):
    samples = getattr(mode, "samples", None)
    return {"n": rho.n, "mc": samples is not None, "samples": samples}


def _learner_attrs(oracle, *args, **kwargs):
    return {"n": oracle.n}


def _learner_result(hypothesis):
    return {"queries": hypothesis.queries_used}


def _span_targets():
    from paulisq.oracle import EmpiricalFromSamples

    seen = weakref.WeakSet()

    def query_attrs(oracle, *args, **kwargs):
        first = oracle not in seen
        seen.add(oracle)
        return {"first": first, "empirical": isinstance(oracle.config.policy, EmpiricalFromSamples)}

    return [
        ("oracle", "StatisticalQueryOracle.query", "oracle.query", query_attrs, None),
        ("oracle", "draw_validation_set", "oracle.draw_validation_set", None, None),
        ("oracle", "eta_grid_search", "oracle.eta_grid_search", None, None),
        ("oracle", "expectation_on_maximally_mixed", "oracle.expectation_on_maximally_mixed", None, None),
        ("learners", "learn_product_state", "learners.learn_product_state", _learner_attrs, _learner_result),
        ("learners", "learn_basis_state", "learners.learn_basis_state", _learner_attrs, _learner_result),
        ("learners", "exhaustive_lpn_solver", "learners.exhaustive_lpn_solver", None, None),
        ("learners", "gaussian_elimination_parity", "learners.gaussian_elimination_parity", None, None),
        ("stabilizer", "random_stabilizer_group", "stabilizer.random_stabilizer_group", _n_of_first, None),
        ("stabilizer", "signed_intersection_counts", "stabilizer.signed_intersection_counts", _n_of_first, None),
        ("pconcept", "inner_product", "pconcept.inner_product", _inner_product_attrs, None),
        ("pconcept", "squared_loss", "pconcept.squared_loss", _n_of_first, None),
        ("statdim", "correlation_matrix", "statdim.correlation_matrix", None, None),
        ("statdim", "average_correlation", "statdim.average_correlation", None, None),
        ("statdim", "sda_bound", "statdim.sda_bound", None, None),
        ("statdim", "sda_exact", "statdim.sda_exact", None, None),
    ]


COUNT_TARGETS = [
    ("stabilizer", "StabilizerGroup.contains", "stabilizer.contains"),
    ("pauli", "pauli_product", "pauli.pauli_product"),
    ("pauli", "commutes", "pauli.commutes"),
    ("pconcept", "f_value", "pconcept.f_value"),
]


# ---------------------------------------------------------------------------
# per-layer metrics


def _median_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; a layer that did no work
    on this workload reads zero."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def picked(name, **where):
        return [
            i for i in by_name.get(name, [])
            if all(spans[i][ATTRS].get(k) == v for k, v in where.items())
        ]

    def durations(indices):
        return [spans[i][END] - spans[i][START] for i in indices]

    def self_s(name, **where):
        return sum(spans[i][END] - spans[i][START] - child_time[i] for i in picked(name, **where))

    def has_ancestor(i, names):
        parent = spans[i][PARENT]
        while parent is not None:
            if spans[parent][NAME] in names:
                return True
            parent = spans[parent][PARENT]
        return False

    learner_names = ("learners.learn_product_state", "learners.learn_basis_state")
    issued = sum(spans[i][ATTRS].get("queries", 0) for name in learner_names for i in by_name.get(name, []))
    base = sum(1 for i in by_name.get("oracle.query", []) if has_ancestor(i, learner_names))
    groups = by_name.get("stabilizer.random_stabilizer_group", [])
    commutes_in_groups = sum(
        spans[i][COUNTS]["pauli.commutes"] for i in groups if spans[i][COUNTS]
    )
    mc = picked("pconcept.inner_product", mc=True)
    mc_samples = sum(spans[i][ATTRS]["samples"] for i in mc)

    m: dict[str, tuple[float, str]] = {
        "oracle.query.calls": (len(by_name.get("oracle.query", [])), "count"),
        "oracle.query.first_ms_p50": (_median_ms(durations(picked("oracle.query", first=True, empirical=False))), "ms"),
        "oracle.query.next_ms_p50": (_median_ms(durations(picked("oracle.query", first=False, empirical=False))), "ms"),
        "oracle.query.empirical_ms_p50": (_median_ms(durations(picked("oracle.query", empirical=True))), "ms"),
        "oracle.query.self_s": (self_s("oracle.query"), "s"),
        "oracle.wrapper_amplification": (base / issued if issued else 0.0, "ratio"),
        "oracle.wrapper_amplification.base": (issued, "count"),
        "oracle.draw_validation_set.self_s": (self_s("oracle.draw_validation_set"), "s"),
        "oracle.eta_grid_search.self_s": (self_s("oracle.eta_grid_search"), "s"),
        "oracle.expectation_on_maximally_mixed.self_s": (self_s("oracle.expectation_on_maximally_mixed"), "s"),
        "learners.learn_product_state.self_s": (self_s("learners.learn_product_state"), "s"),
        "learners.exhaustive_lpn_solver.ms_p50": (_median_ms(durations(by_name.get("learners.exhaustive_lpn_solver", []))), "ms"),
        "learners.gaussian_elimination_parity.ms_p50": (_median_ms(durations(by_name.get("learners.gaussian_elimination_parity", []))), "ms"),
        "learners.lpn_embedding.ms_p50": (_median_ms(durations(by_name.get("learners.lpn_embedding", []))), "ms"),
        "stabilizer.random_stabilizer_group.commutes_per_group": (
            commutes_in_groups / len(groups) if groups else 0.0, "calls/group"),
        "stabilizer.contains.calls": (tracer.counts["stabilizer.contains"], "count"),
        "stabilizer.enumerate_stabilizer_groups.s": (sum(durations(by_name.get("stabilizer.enumerate_stabilizer_groups", []))), "s"),
        "pconcept.inner_product.mc.us_per_sample": (1e6 * sum(durations(mc)) / mc_samples if mc_samples else 0.0, "us"),
        "pconcept.squared_loss.self_s": (self_s("pconcept.squared_loss"), "s"),
        "pconcept.f_value.calls": (tracer.counts["pconcept.f_value"], "count"),
        "pauli.pauli_product.calls": (tracer.counts["pauli.pauli_product"], "count"),
        "pauli.commutes.calls": (tracer.counts["pauli.commutes"], "count"),
        "statdim.correlation_matrix.s": (sum(durations(by_name.get("statdim.correlation_matrix", []))), "s"),
        "statdim.average_correlation.self_s": (self_s("statdim.average_correlation"), "s"),
        "statdim.sda_bound.self_s": (self_s("statdim.sda_bound"), "s"),
    }
    for n in (4, 8):
        calls = picked("learners.learn_product_state", n=n)
        queries = sum(spans[i][ATTRS].get("queries", 0) for i in calls)
        m[f"learners.queries_per_call.n{n}"] = (queries / len(calls) if calls else 0.0, "queries/call")
    for n in SIZES:
        m[f"stabilizer.random_stabilizer_group.n{n}.ms_p50"] = (
            _median_ms(durations(picked("stabilizer.random_stabilizer_group", n=n))), "ms")
        m[f"stabilizer.signed_intersection_counts.n{n}.ms_p50"] = (
            _median_ms(durations(picked("stabilizer.signed_intersection_counts", n=n))), "ms")
        m[f"pconcept.inner_product.exact.n{n}.self_s"] = (self_s("pconcept.inner_product", n=n, mc=False), "s")
    return m
