"""Per-layer tracing from outside the program.

``Tracer`` wraps the public functions of each qsk layer, and numpy's
``leggauss``, and rebinds each wrapper under every name that refers to
the original in the ``qsk`` package, so calls made through
``from .x import y`` bindings are seen too.  Every wrapped call is a span;
a layer's self time is its span time minus the time of the spans it
encloses.  A call into the same layer from inside one of its spans (for
example ``little_q_laguerre`` reaching ``little_q_laguerre_scaled``)
belongs to the enclosing span.  Spans are aggregated in memory per layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable

from qsk import orthofunc
from qsk.errors import QskError

KINDS = tuple(k.value for k in orthofunc.FunctionalKind)
_KIND_OF = {row["tag"]: orthofunc.FunctionalKind[row["kind"]].value
            for row in orthofunc.list_corollaries()}


class TraceError(RuntimeError):
    """The trace cannot be trusted: a layer it wraps is missing, or a
    layer the workload must pass through recorded no calls."""


# Counters take the span's statistics, the call's positional arguments
# (qsk passes these positionally) and its result.
def _degree(stat, args, result):
    stat["degree_sum"] += args[0]


def _factors(stat, args, result):
    stat["factors"] += args[2]


def _terms(stat, args, result):
    stat["terms"] += result.terms_used


def _nodes(stat, args, result):
    stat["nodes"] += result.n_terms_outer


def _outer_inner(stat, args, result):
    stat["outer_terms"] += result.n_terms_outer
    stat["inner_terms"] += result.n_terms_inner


def _corollary_group(args) -> str:
    cid = args[0]
    return f"orthofunc.{_KIND_OF[getattr(cid, 'value', cid)]}"


# (layer, defining module, public name, counter).  A layer given as a
# function takes the call's positional arguments and names the layer.
LAYERS: tuple[tuple[str | Callable, str, str, Callable | None], ...] = (
    ("qpoch.poch_finite", "qsk.qpoch", "poch_finite", _factors),
    ("qpoch.poch_infinite", "qsk.qpoch", "poch_infinite", None),
    ("bhs.eval_phi", "qsk.bhs", "eval_phi", _terms),
    ("polyfam.askey_wilson", "qsk.polyfam", "askey_wilson", _degree),
    ("polyfam.cont_q_ultra", "qsk.polyfam", "cont_q_ultra", _degree),
    ("polyfam.little_q_laguerre", "qsk.polyfam", "little_q_laguerre", _degree),
    ("polyfam.little_q_laguerre", "qsk.polyfam", "little_q_laguerre_scaled", _degree),
    ("polyfam.q_laguerre", "qsk.polyfam", "q_laguerre", _degree),
    ("polyfam.weight", "qsk.polyfam", "aw_weight", None),
    ("polyfam.weight", "qsk.polyfam", "ultra_weight", None),
    ("polyfam.weight", "qsk.polyfam", "qlag_weight", None),
    ("genfun.integrand", "qsk.genfun", "lhs_integrand_factor", None),
    ("genfun.verify", "qsk.genfun", "verify_identity", _outer_inner),
    ("genfun.verify", "qsk.genfun", "verify_source", _outer_inner),
    (_corollary_group, "qsk.orthofunc", "verify_corollary", _nodes),
    ("orthofunc.leggauss", "numpy.polynomial.legendre", "leggauss", None),
    ("connect.coeffs", "qsk.connect", "aw_connection", None),
    ("connect.coeffs", "qsk.connect", "ultra_connection", None),
    ("connect.coeffs", "qsk.connect", "lql_connection", None),
    ("connect.coeffs", "qsk.connect", "qlag_connection", None),
    ("connect.residual", "qsk.connect", "expansion_residual", None),
)

_FAMILIES = ("askey_wilson", "cont_q_ultra", "little_q_laguerre", "q_laguerre")
_REPORTED = (
    *((f"orthofunc.{k}", ("self_s", "nodes", "errors")) for k in KINDS),
    ("orthofunc.leggauss", ("calls", "self_s")),
    ("polyfam.weight", ("calls", "self_s")),
    ("genfun.integrand", ("calls", "self_s")),
    ("bhs.eval_phi", ("calls", "terms", "self_s", "errors")),
    ("qpoch.poch_finite", ("calls", "factors", "self_s")),
    ("qpoch.poch_infinite", ("calls", "self_s")),
    *((f"polyfam.{f}", ("calls", "degree_sum", "self_s")) for f in _FAMILIES),
    ("genfun.verify", ("calls", "self_s")),
    ("connect.coeffs", ("calls", "self_s")),
    ("connect.residual", ("self_s",)),
)
#: Reported per-layer metric name -> (layer, statistic).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    f"{layer}.{stat}": (layer, stat) for layer, stats in _REPORTED for stat in stats
}
LAYER_METRICS["genfun.outer_terms"] = ("genfun.verify", "outer_terms")
LAYER_METRICS["genfun.inner_terms"] = ("genfun.verify", "inner_terms")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "fraction" if name.endswith("_frac") else "count"


class _Stat(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Wraps every layer on construction; ``with tracer:`` installs the
    wrappers and restores the original bindings on exit, so traced and
    untraced calls can be interleaved."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.top_level_s = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "qsk" or name.startswith("qsk.")]
        for layer, modname, name, count in LAYERS:
            home = importlib.import_module(modname)
            if not hasattr(home, name):
                raise TraceError(f"{modname}.{name} is missing")
            original = getattr(home, name)
            wrapper = self._wrap(layer, original, count)
            for ns in {id(m): m for m in (home, *namespaces)}.values():
                for attr, value in vars(ns).items():
                    if value is original:
                        self._patches.append((ns, attr, original, wrapper))

    def stat(self, layer: str) -> _Stat:
        return self.stats.setdefault(layer, _Stat())

    def _wrap(self, layer, fn, count):
        stack = self._stack
        clock = time.perf_counter
        fixed = layer if isinstance(layer, str) else None

        def wrapper(*args, **kwargs):
            group = fixed or layer(args)
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            stat = self.stat(group)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except QskError:
                stat["errors"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_level_s += dt
            if count is not None:
                count(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def require(self, layers) -> None:
        """Raise TraceError unless every named layer recorded a call."""
        silent = [layer for layer in layers if self.stat(layer)["calls"] == 0]
        if silent:
            raise TraceError(f"no calls recorded at {', '.join(silent)}")

    def metrics(self) -> dict[str, float]:
        return {name: self.stat(layer)[stat]
                for name, (layer, stat) in LAYER_METRICS.items()}
