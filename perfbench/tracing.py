"""Spans and counters around the calls into each robustmm module.

Nothing in ``src/`` is instrumented: ``Tracer.install`` replaces each
measured function with a wrapper, under every name that a robustmm
module holds it by (``robustmm.estimators`` imports ``_mscale_scalar``
by name, ``robustmm.cli`` imports ``load_csv``, and so on), and methods
on their classes. Each wrapped call records a span (name, start, end,
parent) in memory; self time is a span's duration minus the time its
child spans cover. A function that no longer exists fails ``install``
instead of reporting zero.

Spans recorded in forked worker processes stay there, so a parallel
simulation reports only the spans of the parent process.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("rho", "mscale", "model", "estimators", "inference", "montecarlo",
          "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_batch(c, args, kwargs, out):
    c["mscale.batch_rows"] += np.shape(_arg(args, kwargs, 0, "R"))[0]
    c["mscale.uncertified_rows"] += int(np.count_nonzero(out[3] == 2))


def _count_candidates(c, args, kwargs, out):
    c["estimators.candidates_drawn"] += _arg(args, kwargs, 2, "n_sub")
    c["estimators.candidates_usable"] += len(out)


def _count_refine(c, args, kwargs, out):
    c["estimators.refine_full_iters"] += out[2]
    c["estimators.refine_full_capped"] += not out[3]


def _count_wls(c, args, kwargs, out):
    c["estimators.wls_singular"] += out is None


def _count_mm(c, args, kwargs, out):
    c["estimators.mm_iters"] += out[1]


def _count_tasks(c, args, kwargs, out):
    c["montecarlo.tasks"] += len(_arg(args, kwargs, 1, "tasks"))


def _count_points(c, args, kwargs, out):
    c["rho.loss_points"] += np.size(args[0])


#: (span name, defining module, function, counter). Every reference to
#: the function held by a loaded robustmm module is replaced.
FUNCTIONS = (
    ("mscale.batch", "robustmm.mscale", "_mscale_batch", _count_batch),
    ("mscale.scalar", "robustmm.mscale", "_mscale_scalar", None),
    ("model.residuals", "robustmm.model", "residuals", None),
    ("model.load_csv", "robustmm.model", "load_csv", None),
    ("estimators.fit", "robustmm.estimators", "fit", None),
    ("estimators.candidates", "robustmm.estimators", "_elemental_candidates",
     _count_candidates),
    ("estimators.candidates", "robustmm.estimators", "_box_candidates",
     _count_candidates),
    ("estimators.quick_refine", "robustmm.estimators", "_quick_refine", None),
    ("estimators.refine_full", "robustmm.estimators", "_refine_s_full",
     _count_refine),
    ("estimators.wls", "robustmm.estimators", "_wls_step", _count_wls),
    ("estimators.mm", "robustmm.estimators", "_fit_mm_stage", _count_mm),
    ("estimators.certify", "robustmm.estimators", "_equation_residuals", None),
    ("inference.cov", "robustmm.inference", "asymptotic_cov", None),
    ("inference.constants", "robustmm.inference", "plugin_constants", None),
    ("montecarlo.map", "robustmm.montecarlo", "_parallel_map", _count_tasks),
    ("montecarlo.generate", "robustmm.montecarlo", "_generate", None),
    ("montecarlo.population", "robustmm.montecarlo", "population_constants",
     None),
    ("montecarlo.report", "robustmm.montecarlo", "run_scenario", None),
    ("cli.main", "robustmm.cli", "main", None),
    ("cli.identifiability", "robustmm.cli", "check_identifiability", None),
    ("cli.emit", "robustmm.cli", "_emit_json", None),
)

#: (span name, module, class, method names)
METHODS = (
    ("rho.method", "robustmm.rho", "RhoFunction",
     ("rho", "psi", "psi_prime", "weight")),
    ("model.eval_batch", "robustmm.model", "RegressionModel", ("eval_batch",)),
    ("model.grad_rows", "robustmm.model", "RegressionModel", ("grad_rows",)),
    ("inference.psi_matrix", "robustmm.inference", "PsiSystem", ("psi_matrix",)),
)

#: the loss callable built by this factory runs the M-scale hot loop
LOSS_FACTORY = ("robustmm.mscale", "_loss_eval")


def _robustmm_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "robustmm"
                                    or name.startswith("robustmm."))]


class Tracer:
    """In-memory span recorder with per-name aggregation."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index)
        self._stack: list = []
        self.counts = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.loss_calls_in_mscale = 0
        self._undo: list = []

    # --- recording -------------------------------------------------------

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and drop them."""
        if self._stack:
            raise RuntimeError("fold() called inside an open span")
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - child[i]
            if name == "rho.loss" and parent >= 0 \
                    and self.spans[parent][0].startswith("mscale."):
                self.loss_calls_in_mscale += 1
        self.spans.clear()

    # --- patching --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> int:
        hits = 0
        for mod in _robustmm_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                    hits += 1
        return hits

    def install(self) -> None:
        for name, modname, func, counter in FUNCTIONS:
            mod = importlib.import_module(modname)
            original = getattr(mod, func, None)
            if not callable(original):
                raise RuntimeError(f"trace target {modname}.{func} not found")
            self._replace_everywhere(original, self.wrap(name, original, counter))
        for name, modname, clsname, methods in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            for meth in methods:
                original = vars(cls).get(meth) if cls is not None else None
                if not callable(original):
                    raise RuntimeError(
                        f"trace target {modname}.{clsname}.{meth} not found")
                setattr(cls, meth, self.wrap(name, original))
                self._undo.append((cls, meth, original))
        modname, func = LOSS_FACTORY
        factory = getattr(importlib.import_module(modname), func, None)
        if not callable(factory):
            raise RuntimeError(f"trace target {modname}.{func} not found")

        def loss_eval(rho0):
            return self.wrap("rho.loss", factory(rho0), _count_points)

        self._replace_everywhere(factory, loss_eval)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- reporting -------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics per operation, plus the ratios."""
        c, calls, self_s = self.counts, self.calls, self.self_s
        per = {
            "rho.loss_points": c["rho.loss_points"],
            "rho.loss_s": self_s["rho.loss"],
            "rho.method_calls": calls["rho.method"],
            "rho.method_s": self_s["rho.method"],
            "mscale.batch_calls": calls["mscale.batch"],
            "mscale.batch_rows": c["mscale.batch_rows"],
            "mscale.batch_s": self_s["mscale.batch"],
            "mscale.scalar_calls": calls["mscale.scalar"],
            "mscale.scalar_s": self_s["mscale.scalar"],
            "mscale.uncertified_rows": c["mscale.uncertified_rows"],
            "model.residuals_calls": calls["model.residuals"],
            "model.residuals_s": self_s["model.residuals"],
            "model.grad_rows_calls": calls["model.grad_rows"],
            "model.grad_rows_s": self_s["model.grad_rows"],
            "model.eval_batch_calls": calls["model.eval_batch"],
            "model.eval_batch_s": self_s["model.eval_batch"],
            "model.load_csv_s": self_s["model.load_csv"],
            "estimators.candidates_drawn": c["estimators.candidates_drawn"],
            "estimators.candidates_usable": c["estimators.candidates_usable"],
            "estimators.candidates_s": self_s["estimators.candidates"],
            "estimators.quick_refine_s": self_s["estimators.quick_refine"],
            "estimators.refine_full_calls": calls["estimators.refine_full"],
            "estimators.refine_full_iters": c["estimators.refine_full_iters"],
            "estimators.refine_full_capped": c["estimators.refine_full_capped"],
            "estimators.refine_full_s": self_s["estimators.refine_full"],
            "estimators.wls_calls": calls["estimators.wls"],
            "estimators.wls_singular": c["estimators.wls_singular"],
            "estimators.wls_s": self_s["estimators.wls"],
            "estimators.mm_iters": c["estimators.mm_iters"],
            "estimators.mm_s": self_s["estimators.mm"],
            "estimators.certify_s": self_s["estimators.certify"],
            "inference.cov_s": self_s["inference.cov"],
            "inference.constants_s": self_s["inference.constants"],
            "inference.psi_matrix_s": self_s["inference.psi_matrix"],
            "montecarlo.tasks": c["montecarlo.tasks"],
            "montecarlo.generate_s": self_s["montecarlo.generate"],
            "montecarlo.population_s": self_s["montecarlo.population"],
            "montecarlo.map_s": self_s["montecarlo.map"],
            "montecarlo.report_s": self_s["montecarlo.report"],
            "cli.main_s": self_s["cli.main"],
            "cli.identifiability_s": self_s["cli.identifiability"],
            "cli.emit_s": self_s["cli.emit"],
        }
        out = {k: v / ops for k, v in per.items()}
        loss_s = self_s["rho.loss"]
        out["rho.loss_points_per_s"] = c["rho.loss_points"] / loss_s if loss_s else 0.0
        solves = calls["mscale.batch"] + calls["mscale.scalar"]
        out["mscale.loss_calls_per_solve"] = (self.loss_calls_in_mscale / solves
                                              if solves else 0.0)
        return out

    def layer_split(self, ops: int) -> dict:
        """Self time per operation summed over each layer's spans."""
        split = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            split[name.split(".", 1)[0]] += s / ops
        return split
