"""Spans and call counts around specvar's public functions, recorded from
outside the package.

Each listed function is replaced by a wrapper in every specvar namespace
that holds it (``spectral`` does ``from .symmat import pinv_shift``, so
patching ``symmat`` alone would miss its calls); penalty methods are
replaced on the classes. A span holds its name, start, end, parent span and
job id; spans stay in memory until the run ends. The counted functions are
cheap and called hundreds of times per job, so they get a call counter
instead of a span and their time stays with the caller.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from specvar import cli, oracle, perturb, spectral, symfun, symmat, verify

SPANNED = [
    (symmat, "eig"),
    (symmat, "pinv_shift"),
    (symmat, "fan_gap"),
    (symmat, "block_sort_permutation"),
    (perturb, "eig_dir_derivative"),
    (spectral, "curvature_correction"),
    (spectral, "fan_block_gaps"),
    (spectral, "critical_cone_member"),
    (spectral, "spectral_subgradient"),
    (spectral, "spectral_second_subderivative"),
    (spectral, "second_semiderivative"),
    (spectral, "spectral_prox"),
    (oracle, "numeric_second_subderivative"),
    (oracle, "numeric_subderivative"),
    (oracle, "numeric_prox"),
    (verify, "run_all"),
    (cli, "run"),
]
PENALTY_CLASSES = [symfun.SymmetricFunction, symfun.OrderStat, symfun.EigGapMax, symfun.McpSum, symfun.SmoothSep]
PENALTY_METHODS = ["check_subgradient", "critical_cone_member", "second_subderivative", "prox"]
# (metric name, module, attribute): linprog is the hull-membership LP,
# minimize the Powell search, lifted(theta) the function the oracles evaluate.
COUNTED = [
    ("symfun.hull_lp", symfun, "linprog"),
    ("oracle.minimize", oracle, "minimize"),
    ("linalg.eigvalsh", np.linalg, "eigvalsh"),
]
LIFTED = "spectral.lifted"


def _name(module, attr):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


SPAN_NAMES = [_name(m, a) for m, a in SPANNED] + [f"symfun.{m}" for m in PENALTY_METHODS]
COUNT_NAMES = [name for name, _, _ in COUNTED] + [LIFTED]


def _namespaces():
    return [m for k, m in list(sys.modules.items()) if k == "specvar" or k.startswith("specvar.")]


class Tracer:
    """Records spans and call counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.job]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, home, attr, new):
        orig = getattr(home, attr)
        for mod in {id(m): m for m in [home, *_namespaces()]}.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def install(self):
        for mod, attr in SPANNED:
            self._replace(mod, attr, self.span(_name(mod, attr), getattr(mod, attr)))
        for name, mod, attr in COUNTED:
            self._replace(mod, attr, self.counted(name, getattr(mod, attr)))
        lifted = spectral.lifted
        self._replace(spectral, "lifted", functools.wraps(lifted)(lambda theta: self.counted(LIFTED, lifted(theta))))
        for cls in PENALTY_CLASSES:
            for meth in PENALTY_METHODS:
                if meth in vars(cls):
                    orig = vars(cls)[meth]
                    setattr(cls, meth, self.span(f"symfun.{meth}", orig))
                    self._undo.append((cls, meth, orig))

    def remove(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def layer_metrics(self, jobs):
        """Calls and self time per job for every layer; self time is a
        span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        calls = Counter()
        self_ms = defaultdict(float)
        for (name, t0, t1, _, job), child in zip(self.spans, covered):
            if job is not None:
                calls[name] += 1
                self_ms[name] += (t1 - t0 - child) * 1e3
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / jobs, "count")
            out[f"{name}.self_ms"] = (self_ms[name] / jobs, "ms")
        for name in COUNT_NAMES:
            out[f"{name}.calls"] = (self.counts[name] / jobs, "count")
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_base = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round((t0 - t_base) * 1e9), round((t1 - t_base) * 1e9), p, j]
            for n, t0, t1, p, j in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start_ns", "end_ns", "parent", "job"], "spans": rows}, fh)
