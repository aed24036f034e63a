"""Span recorder for the traced benchmark run.

The recorder wraps names that mpckit modules call through (module
attributes looked up at call time), records one span per call and restores
every name on exit. High-frequency kernels (``lu_solve``, the dynamics
residual, ``model.step``) are recorded as counts and summed time on the
enclosing span instead of as spans of their own, so the trace stays small.
"""

import dataclasses
import json
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "episode", "leaf",
                 "child_s", "info")

    def __init__(self, sid, name, parent, episode):
        self.id = sid
        self.name = name
        self.parent = parent
        self.episode = episode
        self.start = self.end = 0.0
        self.leaf = {}        # leaf name -> [calls, seconds]
        self.child_s = 0.0    # time covered by child spans and leaves
        self.info = None

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s

    def leaf_calls(self, name):
        return self.leaf.get(name, (0, 0.0))[0]

    def leaf_s(self, name):
        return self.leaf.get(name, (0, 0.0))[1]

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "episode": self.episode,
                "self_s": self.self_s,
                "leaf": {k: {"calls": v[0], "s": v[1]} for k, v in self.leaf.items()},
                "info": self.info}


def _status(out):
    return getattr(getattr(out, "status", None), "value", None)


def _qp_info(out):
    return {"iterations": out.iterations, "status": _status(out)}


def _nlp_info(out):
    return {"iterations": out.iterations, "status": _status(out),
            "elastic": bool(out.elastic_used)}


def _step_info(out):
    return {"status": getattr(out.solver_status, "value", None),
            "iterations": out.iterations}


class Patches:
    """Replaces module attributes in a with-block and restores them all on
    exit. ``Patches((module, attr, make), ...)`` sets each ``module.attr``
    to ``make(original)``."""

    def __init__(self, *triples):
        self._triples = triples
        self._saved = []

    def _patch(self, module, attr, make):
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def __enter__(self):
        for triple in self._triples:
            self._patch(*triple)
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()
        return False


class Tracer(Patches):
    """Records spans while installed; ``with Tracer(mods) as t:`` restores names."""

    def __init__(self, mods):
        super().__init__()
        self.mods = mods
        self.spans = []
        self.stack = []
        self.episode = -1
        self._leaf_depth = 0

    # -- recording -------------------------------------------------------
    def open(self, name):
        sp = Span(len(self.spans) + len(self.stack),
                  name, self.stack[-1].id if self.stack else None, self.episode)
        self.stack.append(sp)
        sp.start = perf_counter()
        return sp

    def close(self, sp, info=None):
        sp.end = perf_counter()
        self.stack.pop()
        sp.info = info
        if self.stack:
            self.stack[-1].child_s += sp.dur
        self.spans.append(sp)

    def span(self, name, fn, info=None):
        def traced(*args, **kwargs):
            sp = self.open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(sp, info(out) if info and out is not None else None)
        return traced

    def leaf(self, name, fn):
        def counted(*args, **kwargs):
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._leaf_depth -= 1
                if self.stack:
                    top = self.stack[-1]
                    rec = top.leaf.setdefault(name, [0, 0.0])
                    rec[0] += 1
                    rec[1] += dt
                    # a leaf nested in a leaf (model.step inside the
                    # residual) is already covered by the outer one
                    if self._leaf_depth == 0:
                        top.child_s += dt
        return counted

    # -- installing ------------------------------------------------------
    def __enter__(self):
        m = self.mods
        ctl, nlp, qp, feas, cli = (m.controller, m.nlp_solver, m.qp_solver,
                                   m.feasibility, m.cli)
        self._patch(ctl, "lmpc_step", lambda f: self.span("controller.lmpc_step", f, _step_info))
        self._patch(ctl, "nmpc_step", lambda f: self.span("controller.nmpc_step", f, _step_info))
        for mod in (ctl, nlp, feas):
            self._patch(mod, "solve_qp", lambda f: self.span("qp_solver.solve_qp", f, _qp_info))
        self._patch(ctl, "solve_nlp", lambda f: self.span("nlp_solver.solve_nlp", f, _nlp_info))
        for attr in ("assemble_sparse_qp", "assemble_condensed_qp"):
            self._patch(ctl, attr, lambda f: self.span("condense.assemble", f))
        for mod, attrs in ((ctl, ("build_prediction", "build_weights", "stack_constraints")),
                           (feas, ("build_prediction", "stack_constraints"))):
            for attr in attrs:
                self._patch(mod, attr, lambda f: self.span("condense.build", f))
        for attr in ("steady_state_input_lti", "steady_state_input_nonlinear"):
            self._patch(ctl, attr, lambda f: self.span("model.steady_state", f))
        self._patch(ctl, "build_feq", self._wrap_feq)
        self._patch(ctl, "build_feq_jacobian", self._wrap_feq_jacobian)
        self._patch(nlp, "finite_diff_jacobian",
                    lambda f: self.span("numerics.finite_diff_jacobian", f))
        self._patch(qp, "lu_factor", lambda f: self.span("qp_solver.lu_factor", f))
        self._patch(qp, "lu_solve", lambda f: self.leaf("qp_solver.lu_solve", f))
        self._patch(cli, "write_csv", lambda f: self.span("cli.write_csv", f))
        return self

    def _wrap_feq(self, build):
        def traced(*args, **kwargs):
            residual, d = build(*args, **kwargs)
            return self.leaf("nlp_solver.residual", residual), d
        return traced

    def _wrap_feq_jacobian(self, build):
        def traced(*args, **kwargs):
            jac = build(*args, **kwargs)
            return None if jac is None else self.span("nlp_solver.jacobian", jac)
        return traced

    def wrap_model(self, model):
        """A copy of a NonlinearModel whose ``step`` calls are counted."""
        return dataclasses.replace(model, step=self.leaf("model.step", model.step))

    def dump(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict()) + "\n")
