"""Spans around calls into each layer of telent, recorded from outside.

The wrappers live here, not in the package.  ``installed`` replaces every
public function of telent's modules, the numpy and scipy linear-algebra
routines under them, and ``leggauss`` with a wrapper that records a span:
name, start, end, parent span and op.  Spans stay in memory until
``write_spans``.  A function is replaced in every namespace that holds it,
because ``from .x import y`` gives each importing module its own binding:
``verify`` and ``cli`` each hold ``telescopic_relative_entropy`` and
``oracle`` holds ``leggauss``.

Layers: ``linalg`` (numpy.linalg, scipy.linalg, ``leggauss``) and the
package modules ``matfun``, ``states``, ``tre``, ``renyi``, ``oracle``,
``verify`` and ``cli``.  A span's self time is its duration minus that of
its child spans.  The tracer's own work inside a span (hashing ``eigh``
inputs) is recorded as a ``trace`` child span and is left out of every
time reported.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE_MODULES = ("matfun", "states", "tre", "renyi", "oracle", "verify", "cli")
LINALG_FUNCTIONS = {
    "numpy.linalg": ("eigh", "eigvalsh", "inv", "solve", "cholesky"),
    "scipy.linalg": ("logm", "fractional_matrix_power"),
    "numpy.polynomial.legendre": ("leggauss",),
}
EIGH = {"linalg.eigh", "linalg.eigvalsh"}

# Per-layer metrics, per traced item unless the name says otherwise.
LAYER_METRICS = (
    ("linalg.eigh_calls_per_item", "count/item"),
    ("linalg.eigh_mats_per_item", "count/item"),
    ("linalg.eigh_distinct_ratio", "1"),
    ("linalg.eigh_ms_per_item", "ms/item"),
    ("linalg.solve_ms_per_item", "ms/item"),
    ("linalg.scipy_funm_ms_per_item", "ms/item"),
    ("matfun.decompose_calls_per_item", "count/item"),
    ("matfun.self_ms_per_item", "ms/item"),
    ("matfun.trace_norm_ms_per_item", "ms/item"),
    ("states.jsonable_calls_per_item", "count/item"),
    ("states.self_ms_per_item", "ms/item"),
    ("tre.sa_calls_per_item", "count/item"),
    ("tre.sa_self_ms_per_item", "ms/item"),
    ("tre.limit_calls_per_item", "count/item"),
    ("tre.holevo_self_ms_per_item", "ms/item"),
    ("renyi.state_power_calls_per_item", "count/item"),
    ("renyi.self_ms_per_item", "ms/item"),
    ("oracle.self_ms_per_item", "ms/item"),
    ("oracle.frechet_power_ms_per_item", "ms/item"),
    ("oracle.tre_ms_per_item", "ms/item"),
    ("oracle.fd_ms_per_item", "ms/item"),
    ("oracle.scheme_builds_per_item", "count/item"),
    ("oracle.scheme_hit_ratio", "1"),
    ("verify.self_ms_per_item", "ms/item"),
    ("verify.limits_ms_per_item", "ms/item"),
    ("verify.to_json_ms_per_op", "ms/op"),
    ("cli.self_ms_per_item", "ms/item"),
    ("trace.overhead_ratio", "1"),
)


class Tracer:
    """In-memory span recorder; records only while ``active`` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index, op]
        self._stack: list[int] = []
        self.active = False
        self.op = -1
        self.eigh_mats = 0
        self.eigh_inputs: set[bytes] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        """``fn`` behind a span named ``name``; ``note`` sees the arguments first."""
        nid = self._name_id(name)
        hash_id = self._name_id("trace.hash")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [nid, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                if note is not None:
                    start = time.perf_counter()
                    note(args, kwargs)
                    spans.append([hash_id, start, time.perf_counter(), index, self.op])
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def note_eigh(self, args, kwargs) -> None:
        """Count the matrices handed to eigh/eigvalsh and hash each one."""
        a = np.asarray(args[0] if args else kwargs["a"])
        for m in a.reshape((-1,) + a.shape[-2:]):
            digest = hashlib.blake2b(str((m.dtype.str, m.shape)).encode(), digest_size=16)
            digest.update(np.ascontiguousarray(m).tobytes())
            self.eigh_inputs.add(digest.digest())
            self.eigh_mats += 1


@contextmanager
def replaced_everywhere(replacements: dict):
    """Swap each original for its replacement in every namespace holding it.

    ``replacements`` maps original objects to replacements.  The package,
    its modules, the linear-algebra modules of ``LINALG_FUNCTIONS`` and
    ``verify.VerificationReport`` are searched; all are restored on exit.
    """
    import telent

    namespaces = [telent]
    namespaces += [importlib.import_module(f"telent.{m}") for m in PACKAGE_MODULES]
    namespaces += [importlib.import_module(m) for m in LINALG_FUNCTIONS]
    namespaces.append(importlib.import_module("telent.verify").VerificationReport)
    by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
    saved = []
    try:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        yield
    finally:
        for ns, attr, value in reversed(saved):
            setattr(ns, attr, value)


def _public_functions(module) -> dict[str, object]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function through ``tracer`` for the ``with`` body."""
    replacements = {}
    for short in PACKAGE_MODULES:
        module = importlib.import_module(f"telent.{short}")
        for name, fn in _public_functions(module).items():
            replacements[fn] = tracer.wrap(f"{short}.{name}", fn)
    for module_name, names in LINALG_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for name in names:
            fn = getattr(module, name)
            note = tracer.note_eigh if f"linalg.{name}" in EIGH else None
            replacements[fn] = tracer.wrap(f"linalg.{name}", fn, note)
    to_json = importlib.import_module("telent.verify").VerificationReport.to_json
    replacements[to_json] = tracer.wrap("verify.VerificationReport.to_json", to_json)
    with replaced_everywhere(replacements):
        yield tracer


def layer_metrics(tracer: Tracer, items: int, ops: int, scale_by_op: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of ``LAYER_METRICS`` except ``trace.overhead_ratio``.

    Span times are multiplied by their op's machine-speed scale factor.
    """
    spans = tracer.spans
    n = len(spans)
    label = [tracer.names[s[0]] for s in spans]
    layer = [name.split(".", 1)[0] for name in label]
    parent = [s[3] for s in spans]
    dur = [(s[2] - s[1]) * scale_by_op[s[4]] for s in spans]
    child = [0.0] * n
    hidden = [0.0] * n  # tracer time inside the span
    # children are appended after their parent, so a reverse sweep sees a
    # span's whole subtree before the span itself
    for i in range(n - 1, -1, -1):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            hidden[p] += hidden[i] + (dur[i] if layer[i] == "trace" else 0.0)

    def outermost(group: set[str]) -> list[int]:
        under = [False] * n
        for i in range(n):
            p = parent[i]
            under[i] = p >= 0 and (label[p] in group or under[p])
        return [i for i in range(n) if label[i] in group and not under[i]]

    def count(group: set[str]) -> int:
        return sum(1 for name in label if name in group)

    def inclusive_ms(group: set[str]) -> float:
        return 1e3 * sum(dur[i] - hidden[i] for i in outermost(group))

    def self_ms(keep) -> float:
        return 1e3 * sum(dur[i] - child[i] for i in range(n) if keep(i))

    def layer_self_ms(name: str) -> float:
        return self_ms(lambda i: layer[i] == name)

    def span_self_ms(group: set[str]) -> float:
        return self_ms(lambda i: label[i] in group)

    builds = count({"linalg.leggauss"})
    requests = count({"oracle.rational_scheme", "oracle.log_scheme", "oracle.power_scheme"})
    totals = {
        "linalg.eigh_calls_per_item": count(EIGH),
        "linalg.eigh_mats_per_item": tracer.eigh_mats,
        "linalg.eigh_ms_per_item": inclusive_ms(EIGH),
        "linalg.solve_ms_per_item": inclusive_ms({"linalg.inv", "linalg.solve", "linalg.cholesky"}),
        "linalg.scipy_funm_ms_per_item": inclusive_ms({"linalg.logm", "linalg.fractional_matrix_power"}),
        "matfun.decompose_calls_per_item": count({"matfun.spectral_decompose"}),
        "matfun.self_ms_per_item": layer_self_ms("matfun"),
        "matfun.trace_norm_ms_per_item": inclusive_ms({"matfun.trace_norm_distance"}),
        "states.jsonable_calls_per_item": count({"states.state_to_jsonable"}),
        "states.self_ms_per_item": layer_self_ms("states"),
        "tre.sa_calls_per_item": count({"tre.telescopic_relative_entropy"}),
        "tre.sa_self_ms_per_item": span_self_ms({"tre.telescopic_relative_entropy"}),
        "tre.limit_calls_per_item": len(outermost({"tre.tre_limit_zero", "tre.tre_limit_one"})),
        "tre.holevo_self_ms_per_item": span_self_ms({"tre.holevo_two", "tre.holevo_two_via_relative"}),
        "renyi.state_power_calls_per_item": count({"renyi.state_power"}),
        "renyi.self_ms_per_item": layer_self_ms("renyi"),
        "oracle.self_ms_per_item": layer_self_ms("oracle"),
        "oracle.frechet_power_ms_per_item": inclusive_ms({"oracle.quad_frechet_power"}),
        "oracle.tre_ms_per_item": inclusive_ms({"oracle.quad_tre"}),
        "oracle.fd_ms_per_item": inclusive_ms({"oracle.finite_diff_frechet"}),
        "oracle.scheme_builds_per_item": builds,
        "verify.self_ms_per_item": layer_self_ms("verify"),
        "verify.limits_ms_per_item": inclusive_ms({"verify.check_limit_closed_forms"}),
        "cli.self_ms_per_item": layer_self_ms("cli"),
    }
    metrics = {name: value / items for name, value in totals.items()}
    metrics["linalg.eigh_distinct_ratio"] = (
        len(tracer.eigh_inputs) / tracer.eigh_mats if tracer.eigh_mats else 0.0
    )
    metrics["oracle.scheme_hit_ratio"] = 1.0 - builds / requests if requests else 0.0
    metrics["verify.to_json_ms_per_op"] = inclusive_ms({"verify.VerificationReport.to_json"}) / ops
    return metrics


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write the recorded spans as JSON, times in seconds from the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "names": tracer.names,
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [[s[0], s[1] - origin, s[2] - origin, s[3], s[4]] for s in tracer.spans],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
