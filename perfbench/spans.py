"""Layer spans recorded from outside the library.

The tracer wraps the public functions of each layer by replacing module
attributes.  ``from .x import y`` copies a function into other module
namespaces (``certify_condition`` lives in ``helstrom``, ``certification``
and ``oracle``), so every namespace that holds the same function object gets
the wrapper; a call path that skipped one would undercount its layer.

Spans stay in memory as tuples ``(span_id, parent_id, job_id, name, start_ns,
end_ns)`` and are written out once, after the measured passes.  A span's self
time is its duration minus the durations of its direct children; calls are
strictly nested in one thread, so children never overlap.  Private helpers
(``_tau_search``, ``_alpha_plus``, ``_smoothed_boundary_generic``) get no span:
their time lands in the self time of the public function that called them.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (owner, attribute).  "numpy.linalg" is the kernel under ``helstrom``; the
# other owners are modules of the ``qhtcert`` package.
SPANNED = (
    ("numpy.linalg", "eigh"),
    ("helstrom", "helstrom"),
    ("helstrom", "signed_projections"),
    ("helstrom", "error_probabilities"),
    ("helstrom", "certify_condition"),
    ("oracle", "boundary_radius_search"),
    ("oracle", "brute_force_min_beta"),
    ("classifier", "worst_case_classifier"),
    ("classifier", "class_probabilities"),
    ("states", "depolarize"),
    ("certification", "certify"),
    ("certification", "certify_smoothed"),
    ("certification", "sample_outcomes"),
    ("certification", "certificate_to_json"),
    ("bounds", "bound_report"),
    ("serialize", "load_json"),
    ("serialize", "content_hash"),
    ("serialize", "save_json"),
    ("cli", "build_parser"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{owner}.{attr}" for owner, attr in SPANNED)

JOB_SPAN = "job"


def library_namespaces() -> list:
    """numpy.linalg plus every loaded module of the ``qhtcert`` package."""
    names = sorted(n for n in sys.modules if n == "qhtcert" or n.startswith("qhtcert."))
    return [np.linalg] + [sys.modules[n] for n in names]


class Tracer:
    """Span recorder; the ``SPANNED`` functions are patched only while ``run_job`` runs a job."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._job_id = -1
        # (namespace, attribute, original, wrapper) for every namespace entry to patch.
        self._targets: list = []
        namespaces = library_namespaces()
        for owner, attr in SPANNED:
            home = np.linalg if owner == "numpy.linalg" else sys.modules[f"qhtcert.{owner}"]
            original = getattr(home, attr)
            wrapper = self._wrap(f"{owner}.{attr}", original)
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is original]:
                    self._targets.append((ns, key, original, wrapper))

    def _install(self) -> None:
        for ns, key, _, wrapper in self._targets:
            setattr(ns, key, wrapper)

    def _uninstall(self) -> None:
        for ns, key, original, _ in self._targets:
            setattr(ns, key, original)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, tracer._job_id, name, start, end)

        return wrapper

    def run_job(self, job_id: int, fn):
        """Call ``fn()`` with the wrappers installed, under a root span for the job."""
        self._job_id = job_id
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        self._install()
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            end = time.perf_counter_ns()
            self._uninstall()
            self._stack.pop()
            self.spans[span_id] = (span_id, -1, job_id, JOB_SPAN, start, end)

    def summary(self) -> dict:
        """{name: [calls, self_ns]} over all recorded spans."""
        child_ns = [0] * len(self.spans)
        for span_id, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0] for name in SPAN_NAMES + (JOB_SPAN,)}
        for span_id, _, _, name, start, end in self.spans:
            out[name][0] += 1
            out[name][1] += end - start - child_ns[span_id]
        return out

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["span", "parent", "job", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
