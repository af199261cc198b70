"""Span tracing from outside the program: wrap the public names between layers.

Each wrapped call records a span (op, id, parent id, group, start, end).  A
group is one per-layer metric prefix such as ``model.eval_rhs``; a group can
cover several functions (all ``MultilinearOracle`` forms, all ``asy.*``
functions the predictor calls).  A name that the program no longer has is
skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# group -> (module, attribute path) of each function in it.  A module-level
# function is also replaced under every alias another bthom module imported it
# as, so that calls across modules are seen.
TARGETS = {
    "model.eval_rhs": [("bthom.model", "eval_rhs")],
    "model.build_oracle": [("bthom.model", "build_oracle")],
    "model.forms": [("bthom.model", f"MultilinearOracle.{f}")
                    for f in ("B", "C", "A1", "J2", "B1", "A2", "J3")],
    "linalg.bt_eigenstructure": [("bthom.linalg", "bt_eigenstructure")],
    "linalg.bordered_solve": [("bthom.linalg", "bordered_solve_full"),
                              ("bthom.linalg", "bordered_solve")],
    "nfcoeffs.analyze_bt": [("bthom.nfcoeffs", "analyze_bt")],
    "asymptotics": [("bthom.asymptotics", f) for f in (
        "rp_orbit", "rp_tau", "lp_orbit_of_s", "xi_of_s", "smooth_orbit",
        "smooth_orbit_of_s", "smooth_tau", "rp_int_u", "lp_int_u_over_omega")],
    "predictor.sample_predictor": [("bthom.predictor", "sample_predictor")],
    "predictor.invert_time": [("bthom.predictor", "invert_time")],
    "predictor.time_reparam": [("bthom.predictor", "time_reparam")],
    "predictor.lift_orbit": [("bthom.predictor", "lift_orbit")],
    "corrector.build_bvp": [("bthom.corrector", "build_bvp")],
    "corrector.newton_correct": [("bthom.corrector", "newton_correct")],
    "corrector.bvp_residual": [("bthom.corrector", "bvp_residual")],
    "corrector.bvp_jacobian": [("bthom.corrector", "bvp_jacobian")],
}


def _resolve(module: str, path: str):
    """(owner, attribute, function) for a target, or None if it is gone."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    fn = getattr(owner, attr, None)
    return None if owner is None or not callable(fn) else (owner, attr, fn)


class Tracer:
    """Records spans of wrapped calls while installed; one op at a time."""

    def __init__(self):
        self.spans: list[tuple] = []      # (op, id, parent, group, t0, t1)
        self.op = -1
        self.jac_info: dict[int, tuple[int, int, int]] = {}   # op -> (n, nnz, bytes)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing = [f"{m}:{p}" for fns in TARGETS.values() for m, p in fns
                        if _resolve(m, p) is None]
        self.absent = sorted(g for g, fns in TARGETS.items()
                             if all(f"{m}:{p}" in self.missing for m, p in fns))

    def _wrap(self, group, fn):
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter
        jacobian = group == "corrector.bvp_jacobian"

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((self.op, sid, parent, group, t0, t1))
            if jacobian and self.op not in self.jac_info:
                self.jac_info[self.op] = _matrix_info(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, op: int):
        """Wrap every target (and its aliases in other bthom modules) for one op."""
        self.op = op
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "bthom" or name.startswith("bthom.")) and m is not None]
        try:
            for group, fns in TARGETS.items():
                for module, path in fns:
                    found = _resolve(module, path)
                    if found is None:
                        continue
                    owner, attr, fn = found
                    wrapped = self._wrap(group, fn)
                    owners = [owner] + [m for m in modules if m is not owner
                                        and getattr(m, attr, None) is fn]
                    for o in owners:
                        self._patches.append((o, attr, fn))
                        setattr(o, attr, wrapped)
            yield self
        finally:
            while self._patches:
                o, attr, fn = self._patches.pop()
                setattr(o, attr, fn)
            self._stack.clear()

    def write_spans(self) -> dict:
        """Spans as columns, for the run record."""
        groups = sorted({s[3] for s in self.spans})
        index = {g: i for i, g in enumerate(groups)}
        return {"groups": groups,
                "columns": ["op", "id", "parent", "group", "t0", "t1"],
                "rows": [[op, sid, par, index[g], round(t0, 7), round(t1, 7)]
                         for op, sid, par, g, t0, t1 in self.spans]}


def _matrix_info(J) -> tuple[int, int, int]:
    """(unknowns, nonzeros, bytes held) of a dense or scipy.sparse Jacobian."""
    if hasattr(J, "nnz"):
        nbytes = sum(getattr(J, a).nbytes for a in ("data", "indices", "indptr", "row", "col")
                     if hasattr(J, a))
        return int(J.shape[1]), int(J.nnz), int(nbytes)
    return int(J.shape[1]), int(np.count_nonzero(J)), int(J.nbytes)


def per_op_layers(spans: list[tuple]) -> dict[int, dict[str, float]]:
    """Per op: calls and seconds of each group, self times, and total self time.

    A span counts toward its group only when no enclosing span belongs to the
    same group, so calls inside the layer (asymptotics calling asymptotics)
    are not counted twice.  Self time is a span's duration minus that of its
    direct children.
    """
    by_id = {s[1]: s for s in spans}
    child_s = defaultdict(float)
    for op, sid, parent, group, t0, t1 in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for op, sid, parent, group, t0, t1 in spans:
        row = out[op]
        self_s = (t1 - t0) - child_s[sid]
        row["self_total"] += self_s
        row[f"{group}.self_s"] += self_s
        p = parent
        while p >= 0 and by_id[p][3] != group:
            p = by_id[p][2]
        if p < 0:
            row[f"{group}.calls"] += 1
            row[f"{group}.s"] += t1 - t0
        if group == "corrector.bvp_residual" and parent >= 0 \
                and by_id[parent][3] == "corrector.newton_correct":
            row["newton_residuals"] += 1
        if group == "corrector.newton_correct":
            row["newton_calls"] += 1
    return out
