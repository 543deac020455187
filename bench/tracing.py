"""Spans recorded from outside the library.

:func:`install` replaces public functions of denoise1d, as each module
imported them, with wrappers that record a span per call: name, start,
end, parent and op id.  Role functions built while tracing get an
evaluator that counts the values it is asked for, outside Lipschitz
estimation, and charges them to the innermost open span.  Spans stay in
memory until :meth:`Tracer.take` hands them over at the end of a pass.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import time

import numpy as np

LIPSCHITZ = "nonlinearities.estimate_lipschitz"


def _meta_diffuse(a, result):
    return {"n": len(a["f"]), "steps": result[1].steps}


def _meta_steps(signal_arg, steps_arg):
    def meta(a, result):
        return {"n": len(a[signal_arg]), "steps": int(a[steps_arg])}
    return meta


def _meta_explicit_step(a, result):
    return {"n": len(a["u"]), "steps": 1}


def _meta_chain(a, result):
    return {"n": len(a["f"]), "steps": len(a["blocks"])}


def _meta_file(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# (span name, meta extractor) per public function; the name is the
# defining module and function.
SPANS = {
    "read_signal_csv": ("cli.read_signal_csv", _meta_file),
    "write_signal_csv": ("cli.write_signal_csv", _meta_file),
    "add_noise": ("cli.add_noise", None),
    "analyze": ("stability.analyze", _meta_steps("f", "steps")),
    "estimate_lipschitz": (LIPSCHITZ, None),
    "explicit_step": ("diffusion.explicit_step", _meta_explicit_step),
    "diffuse": ("diffusion.diffuse", _meta_diffuse),
    "iterate_shrinkage": ("shrinkage.iterate_shrinkage", _meta_steps("f", "m")),
    "minimize_by_diffusion": ("variational.minimize_by_diffusion", _meta_steps("f", "m")),
    "chain": ("blocks.chain", _meta_chain),
}

# Functions whose RoleFunction results get a counting evaluator.
FACTORIES = ("make_role_function", "translate")

# Where each wrapper is installed: the namespaces that call the function.
TARGETS = {
    "denoise1d.cli": (
        "read_signal_csv", "write_signal_csv", "add_noise", "analyze",
        "estimate_lipschitz", "explicit_step", "diffuse", "iterate_shrinkage",
        "minimize_by_diffusion", "chain", "make_role_function", "translate",
    ),
    "denoise1d": (
        "diffuse", "iterate_shrinkage", "minimize_by_diffusion", "chain",
        "make_role_function", "translate",
    ),
    "denoise1d.diffusion": ("estimate_lipschitz",),
    "denoise1d.stability": ("estimate_lipschitz",),
    "denoise1d.variational": ("estimate_lipschitz", "translate"),
}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.op = None
        self.spans = []
        self._stack = []
        self._in_lipschitz = 0
        self._in_eval = 0

    def take(self):
        """Return the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans

    def span(self, name, fn, meta):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "start": 0.0, "end": 0.0,
                   "parent": self._stack[-1] if self._stack else None,
                   "op": self.op, "meta": {}}
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            lip = name == LIPSCHITZ
            self._in_lipschitz += lip
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._in_lipschitz -= lip
                self._stack.pop()
            if meta is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["meta"].update(meta(bound.arguments, result))
            return result
        return wrapper

    def counting(self, ev):
        def evaluator(r):
            if self._in_eval or self._in_lipschitz or not self._stack:
                return ev(r)
            self._in_eval += 1
            try:
                out = ev(r)
            finally:
                self._in_eval -= 1
            meta = self.spans[self._stack[-1]]["meta"]
            meta["evals"] = meta.get("evals", 0) + int(np.size(r))
            return out
        return evaluator

    def factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rf = fn(*args, **kwargs)
            return dataclasses.replace(rf, evaluator=self.counting(rf.evaluator))
        return wrapper


def install(tracer, modules):
    """Wrap the TARGETS functions of each named module."""
    for mod_name in modules:
        mod = importlib.import_module(mod_name)
        for name in TARGETS[mod_name]:
            fn = getattr(mod, name)
            if name in FACTORIES:
                wrapped = tracer.factory(fn)
            else:
                span_name, meta = SPANS[name]
                wrapped = tracer.span(span_name, fn, meta)
            setattr(mod, name, wrapped)
