"""Outside-in tracing of the substoch package.

The tracer wraps public functions of each module from the outside; nothing
in the package changes.  A function is rebound in every substoch module that
holds it, not only where it is defined: `identities` and `substochastic` do
`from .matrix import determinant, inverse, ...` and `montecarlo` imports
`walk_visits`, so patching `substoch.matrix` alone would miss their calls.

Spans (id, parent id, name, start, end, self time) stay in memory until the
run ends.  Self time is span time minus the time of child spans; the
tracer's own bookkeeping after a call is charged to the child, so it
inflates no layer's self time and shows only in the overhead ratio.
"""

from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

# (module, function, metric its self time goes to); a None metric means the
# function is only counted, and its time stays in the calling span.
SPANNED = [
    ("cli", "main", "cli.self_s"),
    ("cli", "load_matrix", "cli.load_s"),
    ("generators", "gen_substochastic", "generators.gen_s"),
    ("generators", "gen_general", "generators.gen_s"),
    ("substochastic", "validate_substochastic", "substochastic.validate_s"),
    ("substochastic", "spectral_radius_lt_one", None),
    ("substochastic", "fundamental_matrix", "substochastic.fundamental_s"),
    ("substochastic", "check_diagonal_maximality", "substochastic.fundamental_s"),
    ("substochastic", "spectral_radius_estimate", "substochastic.radius_estimate_s"),
    ("identities", "certify_general", "identities.certify_general_s"),
    ("identities", "verify_all", "identities.verify_all_s"),
    ("matrix", "determinant", "matrix.det_s"),
    ("matrix", "inverse", "matrix.inverse_s"),
    ("matrix", "adjugate", "matrix.adjugate_s"),
    ("matrix", "mat_vec", "matrix.mat_vec_s"),
    ("montecarlo", "crosscheck_fundamental", "montecarlo.crosscheck_s"),
    ("montecarlo", "simulate_visits", "montecarlo.crosscheck_s"),
    ("kernels", "walk_visits", "kernels.walk_s"),
]

CALL_COUNTS = {
    "matrix.det_calls": ("matrix.determinant",),
    "matrix.inverse_calls": ("matrix.inverse",),
    "matrix.adjugate_calls": ("matrix.adjugate",),
    "matrix.mat_vec_calls": ("matrix.mat_vec",),
    "generators.calls": ("generators.gen_substochastic", "generators.gen_general"),
    "substochastic.mmatrix_tests": ("substochastic.spectral_radius_lt_one",),
    "kernels.walk_calls": ("kernels.walk_visits",),
}

GENERATORS = ("generators.gen_substochastic", "generators.gen_general")
GENERATOR_ATTEMPTS = ("substochastic.validate_substochastic", "identities.certify_general")


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


def _max_bits(result) -> int:
    """Largest numerator/denominator bit length in a matrix-layer result."""
    if isinstance(result, Fraction):
        return _bits(result)
    entries = getattr(result, "entries", result)
    if isinstance(entries, (tuple, list)):
        return max((_bits(v) for v in entries), default=0)
    return 0


class Tracer:
    """Installs wrappers into the substoch modules and records spans and
    counts; `uninstall` restores every binding it replaced."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s)
        self.calls: dict[str, int] = {}
        self.returned: dict[str, int] = {}
        self.counts = {
            "identities.reports": 0,
            "matrix.max_bits": 0,
            "kernels.visits": 0,
            "kernels.cap_hits": 0,
            "kernels.visit_matrix_bytes": 0,
        }
        self._stack: list[list] = []  # open spans: [id, start, child_s]
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, _f, _m in SPANNED:  # montecarlo is otherwise imported lazily
            importlib.import_module(f"substoch.{mod_name}")
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "substoch" or name.startswith("substoch."))
        ]
        for mod_name, func_name, metric in SPANNED:
            home = sys.modules[f"substoch.{mod_name}"]
            original = getattr(home, func_name)
            name = f"{mod_name}.{func_name}"
            wrapper = self._span(name, original) if metric else self._counter(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _counter(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        returned = self.returned
        after = self._after.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            calls[name] = calls.get(name, 0) + 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                start = frame[1]
                spans.append((span_id, parent, name, start, end, end - start - frame[2]))
                if ok:
                    returned[name] = returned.get(name, 0) + 1
                    if after is not None:
                        after(self, args, result)
                if stack:
                    stack[-1][2] += clock() - start

        return traced

    # -- counts taken from results, outside every span ----------------------

    def _after_verify_all(self, args, result):
        self.counts["identities.reports"] += len(result)

    def _after_matrix(self, args, result):
        bits = _max_bits(result)
        if bits > self.counts["matrix.max_bits"]:
            self.counts["matrix.max_bits"] = bits

    def _after_walk(self, args, result):
        cum, _start, trials = args[0], args[1], args[2]
        visits, survivors = result
        self.counts["kernels.visits"] += int(visits.sum())
        self.counts["kernels.cap_hits"] += int(survivors)
        # Computed from the shape, not measured: one int64 per (trial, state).
        size = int(trials) * int(cum.shape[0]) * 8
        self.counts["kernels.visit_matrix_bytes"] = max(
            self.counts["kernels.visit_matrix_bytes"], size
        )

    _after = {
        "identities.verify_all": _after_verify_all,
        "matrix.determinant": _after_matrix,
        "matrix.inverse": _after_matrix,
        "matrix.adjugate": _after_matrix,
        "matrix.mat_vec": _after_matrix,
        "kernels.walk_visits": _after_walk,
    }

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics (without the overhead ratio) from the spans and
        counts recorded so far."""
        out = {metric: 0.0 for _m, _f, metric in SPANNED if metric}
        for _id, _parent, name, _start, _end, self_s in self.spans:
            metric = _METRIC_OF[name]
            out[metric] += self_s
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(self.calls.get(n, 0) for n in names)
        out.update(self.counts)
        names = {span[0]: span[2] for span in self.spans}
        attempts = sum(
            1 for _id, parent, name, *_ in self.spans
            if name in GENERATOR_ATTEMPTS and names.get(parent) in GENERATORS
        )
        made = sum(self.returned.get(n, 0) for n in GENERATORS)
        out["generators.accept_ratio"] = made / attempts if attempts else 0.0
        walk_s = out["kernels.walk_s"]
        out["kernels.visits_per_s"] = out["kernels.visits"] / walk_s if walk_s else 0.0
        return out


_METRIC_OF = {f"{m}.{f}": metric for m, f, metric in SPANNED if metric}
