"""Outside-in tracer: spans around ghlin's public functions, patched from outside.

ghlin modules bind each other's functions with ``from .x import y``, so a
function is replaced at every import site: each ``ghlin.*`` module attribute
that is the original object gets the wrapper.  Methods are replaced once on
their class.  ``ghlin.linearize`` is loaded with ``importlib`` because the
package attribute of that name is the ``linearize`` function.

A span's self time is its duration minus the time of the wrapped calls made
inside it.  A key's total time counts only its outermost span, so nested
builds or recursion are not counted twice.  Memo misses are the growth of
``len(cmap.memo)`` across a ``displacement`` call; solver iterations are the
beta calls made inside ``solve_perturbed_inverse`` spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span key); every import site of the function is patched
FUNCTIONS = [
    ("ghlin.cli", "run", "cli.run"),
    ("ghlin.operators", "operator_from_descriptor", "operators.build"),
    ("ghlin.operators", "make_shift", "operators.build"),
    ("ghlin.operators", "make_matrix_operator", "operators.build"),
    ("ghlin.conjugacy", "solve_conjugacy", "conjugacy.solve"),
    ("ghlin.conjugacy", "solve_inverse_conjugacy", "conjugacy.solve"),
    ("ghlin.conjugacy", "verify_conjugacy", "conjugacy.verify"),
    ("ghlin.conjugacy", "verify_inverse_pair", "conjugacy.inverse_pair"),
    ("ghlin.conjugacy", "displacement_space_residual", "conjugacy.membership"),
    ("ghlin.perturbations", "solve_perturbed_inverse", "perturbations.inverse"),
    ("ghlin.vectors", "norm", "vectors.norm"),
    ("ghlin.linearize", "linearize", "linearize.build"),
    ("ghlin.linearize", "theta_bound", "linearize.holder_cert"),
    ("ghlin.linearize", "make_holder_certificate", "linearize.holder_cert"),
    ("ghlin.sampling", "sample_points", "sampling.sample_points"),
]

# (module, class, method, span key); ConjugacyMap.displacement is keyed by direction
METHODS = [
    ("ghlin.perturbations", "Perturbation", "__call__", "perturbations.beta"),
    ("ghlin.vectors", "SparseVector", "memo_key", "vectors.memo_key"),
    ("ghlin.vectors", "DenseVector", "memo_key", "vectors.memo_key"),
    ("ghlin.operators", "ShiftOperator", "apply", "operators.apply"),
    ("ghlin.operators", "ShiftOperator", "apply_inverse", "operators.apply"),
    ("ghlin.operators", "MatrixOperator", "apply", "operators.apply"),
    ("ghlin.operators", "MatrixOperator", "apply_inverse", "operators.apply"),
    ("ghlin.linearize", "LinearizationResult", "conjugacy_residual", "linearize.residual"),
]

FWD, BWD, BETA, INVERSE = "conjugacy.fwd", "conjugacy.bwd", "perturbations.beta", "perturbations.inverse"


def _ghlin_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ghlin" or name.startswith("ghlin."))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Counts and times spans while installed; ``metrics()`` summarises them.

    Use one tracer per traced run: install, run, uninstall, read metrics.
    """

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.misses: dict[str, int] = defaultdict(int)
        self.beta_inside: dict[str, int] = defaultdict(int)
        self.facts: dict[str, int] = {}
        self._maps: dict[int, object] = {}
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []

    # -- spans -----------------------------------------------------------

    def _span(self, key, fn, args, kwargs):
        frame = [0.0]  # time spent in wrapped calls made inside this span
        self._stack.append(frame)
        self._depth[key] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self._depth[key] -= 1
            self.calls[key] += 1
            self.self_time[key] += dt - frame[0]
            if not self._depth[key]:
                self.total[key] += dt
            if self._stack:
                self._stack[-1][0] += dt

    def _note_operator(self, op) -> None:
        self.facts["n_max"] = op.constants.n_max

    def _note_forward_map(self, fwd) -> None:
        self.facts["terms"], self.facts["depth"] = fwd.terms, fwd.depth

    def _wrapper(self, key: str, fn, after=None):
        span = self._span
        if after is None:
            def wrapper(*args, **kwargs):
                return span(key, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = span(key, fn, args, kwargs)
                after(result)
                return result
        return functools.wraps(fn)(wrapper)

    def _beta_wrapper(self, fn):
        span, depth, inside = self._span, self._depth, self.beta_inside

        def wrapper(beta, x):
            if depth[FWD]:
                inside[FWD] += 1
            if depth[INVERSE]:
                inside[INVERSE] += 1
            return span(BETA, fn, (beta, x), {})
        return functools.wraps(fn)(wrapper)

    def _displacement_wrapper(self, fn):
        span = self._span

        def wrapper(cmap, x):
            key = FWD if cmap.direction == "forward" else BWD
            before = len(cmap.memo)
            try:
                return span(key, fn, (cmap, x), {})
            finally:
                self._maps[id(cmap)] = cmap
                if len(cmap.memo) > before:
                    self.misses[key] += 1
        return functools.wraps(fn)(wrapper)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        modules = _ghlin_modules()
        for modname, name, key in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), name)
            if key == "operators.build":
                after = self._note_operator
            elif name == "solve_conjugacy":
                after = self._note_forward_map
            else:
                after = None
            wrapper = self._wrapper(key, orig, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        methods = METHODS + [("ghlin.conjugacy", "ConjugacyMap", "displacement", None)]
        for modname, clsname, name, key in methods:
            cls = getattr(importlib.import_module(modname), clsname)
            orig = cls.__dict__[name]
            if key is None:
                wrapper = self._displacement_wrapper(orig)
            elif key == BETA:
                wrapper = self._beta_wrapper(orig)
            else:
                wrapper = self._wrapper(key, orig)
            self._patches.append((cls, name, orig))
            setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- summary ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything this tracer recorded."""
        c, tot, own, miss = self.calls, self.total, self.self_time, self.misses
        disp_calls = c[FWD] + c[BWD]
        disp_misses = miss[FWD] + miss[BWD]
        return {
            "conjugacy.fwd.self_s_per_miss": _ratio(own[FWD], miss[FWD]),
            "conjugacy.fwd.beta_per_miss": _ratio(self.beta_inside[FWD], miss[FWD]),
            "conjugacy.displacement.calls": disp_calls,
            "conjugacy.displacement.misses": disp_misses,
            "conjugacy.displacement.hit_ratio": _ratio(disp_calls - disp_misses, disp_calls),
            "conjugacy.memo_entries": sum(len(m.memo) for m in self._maps.values()),
            "conjugacy.terms": self.facts.get("terms", 0),
            "conjugacy.depth": self.facts.get("depth", 0),
            "conjugacy.bwd.self_s_per_miss": _ratio(own[BWD], miss[BWD]),
            "conjugacy.verify.s": tot["conjugacy.verify"],
            "conjugacy.inverse_pair.s": tot["conjugacy.inverse_pair"],
            "conjugacy.membership.s": tot["conjugacy.membership"],
            "conjugacy.solve.s": tot["conjugacy.solve"],
            "perturbations.beta.calls": c[BETA],
            "perturbations.beta.self_s": own[BETA],
            "perturbations.inverse.calls": c[INVERSE],
            "perturbations.inverse.self_s": own[INVERSE],
            "perturbations.inverse.iters_per_call": _ratio(self.beta_inside[INVERSE], c[INVERSE]),
            "vectors.norm.calls": c["vectors.norm"],
            "vectors.norm.s": tot["vectors.norm"],
            "vectors.memo_key.calls": c["vectors.memo_key"],
            "vectors.memo_key.s": tot["vectors.memo_key"],
            "operators.build.s": tot["operators.build"],
            "operators.n_max": self.facts.get("n_max", 0),
            "operators.apply.calls": c["operators.apply"],
            "linearize.build.s": tot["linearize.build"],
            "linearize.holder_cert.s": tot["linearize.holder_cert"],
            "linearize.residual.calls": c["linearize.residual"],
            "sampling.sample_points.s": tot["sampling.sample_points"],
            "cli.run.self_s": own["cli.run"],
        }
