"""mpckit closed-loop benchmark.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root; mpckit is imported from ./src. The run
generates its inputs from the seed, drives mpckit through its public entry
points (cli.parse_config, cli.run_experiment, feasibility.is_state_feasible)
for T seconds, checks the answers against scipy references outside the
timed region, and prints a table followed by one JSON line. With --trace 0
the JSON holds the end-to-end metrics; with --trace 1 it holds per-layer
metrics from a traced replay of the ops an untraced pass completed.
"""

import os

# One BLAS thread, set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import bisect
import dataclasses
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
from time import perf_counter

import numpy as np
from scipy.linalg import lu_factor

import check
import workloads
from spans import Patches, Tracer

OUT_DIR = ".bench_out"
DEADLINE_S = 170          # hard stop: a run must end within 180 s
# closed-loop steps checked per run; the scan checks its whole first pass
CHECKS = {"lmpc": 4, "nmpc": 8}
REPEAT_OPS = 3            # ops replayed twice by the exact-repeat check
# Reference speed: the probe kernels' times between ops on an idle 2-core
# x86-64 VM.
PROBE_REF_S = {"py": 0.22e-3, "blas": 9.5e-3}
PROBE_EVERY_S = {"py": 0.0, "blas": 0.2}    # probe after an op once due
BIG_LU = 200      # LAPACK calls on matrices this large count as "blas" time


class BenchError(Exception):
    pass


def load_mpckit(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mpckit", "__init__.py")):
        raise BenchError(f"no mpckit sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    t0 = perf_counter()
    names = ("cli", "controller", "feasibility", "nlp_solver", "qp_solver")
    mods = {name: importlib.import_module(f"mpckit.{name}") for name in names}
    import_s = perf_counter() - t0
    if not os.path.abspath(mods["cli"].__file__).startswith(os.path.abspath(src)):
        raise BenchError(f"mpckit was imported from {mods['cli'].__file__}, not {src}")
    # identifies the program and benchmark sources, for the exact-repeat check
    digest = hashlib.sha256()
    for folder in (os.path.join(src, "mpckit"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return argparse.Namespace(**mods, digest=digest.hexdigest()[:16]), import_s


# ---------------------------------------------------------------------------
# Host speed

class Probe:
    """Two fixed kernels: "py", shaped like an ADMM iteration on small
    arrays (interpreter-bound), and "blas", an LU factorization of the size
    of the condensed workload's KKT matrix."""

    def __init__(self):
        r = np.random.default_rng(0)
        self.M = r.standard_normal((100, 100)) / 10.0
        self.x = r.standard_normal(100)
        self.L = r.standard_normal((744, 744)) + 744.0 * np.eye(744)

    def py(self):
        x = self.x
        for _ in range(30):
            x = np.clip(self.M @ x, -1.0, 1.0)
            float(np.abs(x).max())

    def blas(self):
        lu_factor(self.L)


class Timeline:
    """Wall-clock record of an untraced pass.

    The host is shared, and its speed drifts by 1.4x to 2x over seconds.
    Interpreter-bound code and large LU factorizations slow down by
    different amounts, and a kernel of each kind tracks them. So the probe
    kernels run between ops (outside the ops' intervals), and every interval
    is also reported scaled to the reference speed, from the median of the
    two probes of each kind on either side of it. An op's LAPACK share
    ``blas_share`` (measured on the workload's own ops) is scaled by the
    "blas" probe and the rest by the "py" probe; time between ops (parsing,
    plant simulation, CSV output) by the "py" probe alone.
    """

    def __init__(self, blas_share):
        self.blas_share = blas_share
        self.kernels = Probe()
        self.p_start, self.p_end = [], []           # every probe
        # (start, end) per kernel run; no LU probe when it would get no weight
        self.marks = {"py": [], "blas": []} if blas_share else {"py": []}
        self.ops = []          # (start, end) per op
        self.statuses = []     # solver status per op, or "raised"
        self.counters = []     # [episode, status, solver iterations] per op
        self.setups = []       # per set-up: its (start, end) intervals
        self.samples = []      # (episode or state index, x_k, result) for the gate

    def probe(self, force=True):
        now = perf_counter()
        start = None
        for kind, marks in self.marks.items():
            if force or now - marks[-1][1] >= PROBE_EVERY_S[kind]:
                t0 = perf_counter()
                getattr(self.kernels, kind)()
                marks.append((t0, perf_counter()))
                start = t0 if start is None else start
        if start is not None:
            self.p_start.append(start)
            self.p_end.append(perf_counter())

    def probe_due(self):
        self.probe(force=False)

    def _factor(self, kind, t0, t1):
        """PROBE_REF_S over the median of two probes each side of [t0, t1]."""
        marks = self.marks[kind]
        k = bisect.bisect_right(marks, (t0, t0))
        j = bisect.bisect_left(marks, (t1, t1))
        near = marks[max(k - 2, 0):k] + marks[j:j + 2]
        return PROBE_REF_S[kind] / statistics.median(e - s for s, e in near)

    def speed(self, t0, t1, share=None):
        """Reference-speed factor for [t0, t1] with LAPACK share ``share``
        (default: an op's)."""
        share = self.blas_share if share is None else share
        py = self._factor("py", t0, t1)
        return share * self._factor("blas", t0, t1) + (1.0 - share) * py if share else py

    def norm(self, t0, t1, share=None):
        return (t1 - t0) * self.speed(t0, t1, share)

    def busy(self, scaled):
        """Time spent outside the probes: raw, or scaled to the reference."""
        gaps = list(zip(self.p_end[:-1], self.p_start[1:]))
        if not scaled:
            return sum(b - a for a, b in gaps)
        return sum(self.norm(a, b, 0.0) for a, b in gaps) \
            + sum(self.norm(a, b) - self.norm(a, b, 0.0) for a, b in self.ops)

    def probe_ms(self, kind):
        return [1e3 * (e - s) for s, e in self.marks[kind]]


# ---------------------------------------------------------------------------
# Workload runners. A pass stops after a time budget (timed passes) or after
# a given number of episodes (the traced replay of a timed pass).

class ClosedLoop:
    """An op is one lmpc_step/nmpc_step call made by run_closed_loop. A timed
    pass runs whole cycles of ``cycle`` episodes until its time is spent."""

    kind = None
    cycle = 1

    def __init__(self, mods, seed, csv_path):
        self.mods, self.seed, self.csv_path = mods, seed, csv_path
        self.specs = []

    def spec(self, i):
        while len(self.specs) <= i:
            self.specs.append(self.make(len(self.specs)))
        return self.specs[i]

    def op_attr(self):
        return "lmpc_step" if self.kind == "lmpc" else "nmpc_step"

    @staticmethod
    def cycle_key(i):
        """Episodes with the same key do the same work."""
        return str(i)

    def checked_step(self, i):
        """The step of episode i kept for the correctness gate, or -1."""
        if i >= CHECKS[self.kind]:
            return -1
        return int(workloads.rng(self.seed, 9, i).integers(0, self.spec(i)["doc"]["horizon"]["N_T"]))

    def untraced(self, seconds, blas_share):
        tl = Timeline(blas_share)
        episode = {"i": -1, "step": 0, "keep": -1}

        def timed(fn):
            def op(model, cfg, x_k, *args, **kwargs):
                t0 = perf_counter()
                try:
                    out = fn(model, cfg, x_k, *args, **kwargs)
                except Exception:
                    tl.ops.append((t0, perf_counter()))
                    tl.statuses.append("raised")
                    raise
                tl.ops.append((t0, perf_counter()))
                tl.statuses.append(out.solver_status.value)
                tl.counters.append([episode["i"], tl.statuses[-1], int(out.iterations)])
                tl.probe_due()
                if episode["step"] == episode["keep"]:
                    tl.samples.append((episode["i"], np.array(x_k, float), out))
                episode["step"] += 1
                return out
            return op

        cli = self.mods.cli
        trajs = []
        with Patches((self.mods.controller, self.op_attr(), timed)):
            tl.probe()
            t_start = perf_counter()
            i = 0
            while perf_counter() - t_start < seconds or i % self.cycle:
                text = json.dumps(self.spec(i)["doc"])
                t0 = perf_counter()
                cfg = cli.parse_config(text)
                t1 = perf_counter()
                if self.spec(i)["fd"]:
                    cfg.model = dataclasses.replace(cfg.model, jac_x=None, jac_u=None)
                episode.update(i=i, step=0, keep=self.checked_step(i))
                first = len(tl.ops)
                t_entry = perf_counter()
                summary = cli.run_experiment(cfg, out_path=self.csv_path)
                # set-up: parsing, and run_experiment entry to the first step
                end = tl.ops[first][0] if len(tl.ops) > first else perf_counter()
                tl.setups.append([(t0, t1), (t_entry, end)])
                trajs.append((self.spec(i)["doc"], summary["trajectory"]))
                i += 1
            tl.probe()
        return {"timeline": tl, "episodes": i, "trajs": trajs}

    def traced(self, episodes, tracer):
        cli = self.mods.cli
        csv_bytes = []
        t_start = perf_counter()
        with tracer:
            for i in range(episodes):
                tracer.episode = i
                text = json.dumps(self.spec(i)["doc"])
                root = tracer.open("cli.run_experiment")
                sp = tracer.open("cli.parse_config")
                cfg = cli.parse_config(text)
                tracer.close(sp)
                if self.spec(i)["fd"]:
                    cfg.model = dataclasses.replace(cfg.model, jac_x=None, jac_u=None)
                if self.kind == "nmpc":
                    cfg.model = tracer.wrap_model(cfg.model)
                cli.run_experiment(cfg, out_path=self.csv_path)
                tracer.close(root)
                csv_bytes.append(os.path.getsize(self.csv_path))
        return perf_counter() - t_start, csv_bytes

    def check(self, rec):
        results = []
        for i, x_k, step in rec["timeline"].samples:
            doc = self.spec(i)["doc"]
            if self.kind == "lmpc":
                results.append(check.check_lmpc(self.mods, doc, x_k, step))
            else:
                results.append(check.check_nmpc(doc, x_k, step))
        viols = [(check.trajectory_violation(doc, traj), check.viol_tol(doc))
                 for doc, traj in rec["trajs"]]
        return results, max(v for v, _ in viols), all(v <= tol for v, tol in viols)

    def replay_prefix(self, tracer):
        """Run the first REPEAT_OPS ops of episode 0 under the tracer."""
        cfg = self.mods.cli.parse_config(json.dumps(self.spec(0)["doc"]))
        if self.spec(0)["fd"]:
            cfg.model = dataclasses.replace(cfg.model, jac_x=None, jac_u=None)
        done = []

        def stop_after(fn):
            def op(*args, **kwargs):
                if len(done) == REPEAT_OPS:
                    raise _Stop()
                done.append(1)
                return fn(*args, **kwargs)
            return op

        with Patches((self.mods.controller, self.op_attr(), stop_after)), tracer:
            try:
                self.mods.cli.run_experiment(cfg)
            except _Stop:
                pass


class _Stop(Exception):
    pass


class Lmpc(ClosedLoop):
    kind = "lmpc"
    cycle = workloads.LMPC_POOL

    def __init__(self, mods, seed, csv_path, formulation):
        super().__init__(mods, seed, csv_path)
        self.formulation = formulation

    def make(self, i):
        return workloads.lmpc_episode(self.seed, i, self.formulation)


class Nmpc(ClosedLoop):
    kind = "nmpc"
    cycle = workloads.PEND_CYCLE

    def make(self, i):
        return workloads.pendulum_episode(self.seed, i)


class Scan:
    """Feasibility scan: an op is one is_state_feasible call. A timed pass
    repeats whole passes over the scanned states (``episodes`` counts
    passes); each system in a pass is one set-up."""

    kind = "scan"

    def __init__(self, mods, seed, csv_path):
        self.mods, self.seed = mods, seed
        self.scan = workloads.scan_cycle(seed)

    @staticmethod
    def cycle_key(i):
        return "pass"     # every pass checks the same states in the same order

    def untraced(self, seconds, blas_share):
        cli, feas = self.mods.cli, self.mods.feasibility
        tl = Timeline(blas_share)
        qp_status, qp_iters = [], []

        def keep_status(fn):
            def solve(*args, **kwargs):
                out = fn(*args, **kwargs)
                qp_status.append(out.status.value)
                qp_iters.append(int(out.iterations))
                return out
            return solve

        with Patches((feas, "solve_qp", keep_status)):
            tl.probe()
            t_start = perf_counter()
            i = 0
            while perf_counter() - t_start < seconds:
                for b, (doc, states) in enumerate(self.scan):
                    text = json.dumps(doc)
                    t0 = perf_counter()
                    cfg = cli.parse_config(text)
                    tl.setups.append([(t0, perf_counter())])
                    for j, x in enumerate(states):
                        qp_status.clear()
                        qp_iters.clear()
                        t0 = perf_counter()
                        report = feas.is_state_feasible(cfg.model, cfg.mpc, x)
                        tl.ops.append((t0, perf_counter()))
                        # a state outside X_set is answered without a QP solve
                        tl.statuses.append(qp_status[-1] if qp_status else "optimal")
                        tl.counters.append([i, tl.statuses[-1], sum(qp_iters)])
                        tl.probe_due()
                        if i == 0:
                            tl.samples.append((b, x, report))
                i += 1
            tl.probe()
        return {"timeline": tl, "episodes": i}

    def traced(self, episodes, tracer):
        cli, feas = self.mods.cli, self.mods.feasibility
        t_start = perf_counter()
        with tracer:
            for i in range(episodes):
                tracer.episode = i
                for doc, states in self.scan:
                    text = json.dumps(doc)
                    sp = tracer.open("cli.parse_config")
                    cfg = cli.parse_config(text)
                    tracer.close(sp)
                    for x in states:
                        sp = tracer.open("feasibility.is_state_feasible")
                        report = feas.is_state_feasible(cfg.model, cfg.mpc, x)
                        tracer.close(sp, {"feasible": bool(report.feasible)})
        return perf_counter() - t_start, []

    def check(self, rec):
        results = [check.check_feasibility(self.scan[b][0], x, report)
                   for b, x, report in rec["timeline"].samples]
        return results, 0.0, True

    def replay_prefix(self, tracer):
        doc, states = self.scan[0]
        cfg = self.mods.cli.parse_config(json.dumps(doc))
        with tracer:
            for x in states[:REPEAT_OPS]:
                self.mods.feasibility.is_state_feasible(cfg.model, cfg.mpc, x)


WORKLOADS = {
    "lmpc-condensed": lambda mods, seed, csv: Lmpc(mods, seed, csv, "condensed"),
    "lmpc-sparse": lambda mods, seed, csv: Lmpc(mods, seed, csv, "sparse"),
    "nmpc-pendulum": lambda mods, seed, csv: Nmpc(mods, seed, csv),
    "feasibility-scan": lambda mods, seed, csv: Scan(mods, seed, csv),
}


# ---------------------------------------------------------------------------
# Exact-repeat check

def replay_prefix(wl):
    """Counters of the workload's first ops, and the share of their time
    spent in LU factorizations and solves of at least BIG_LU rows (smaller
    ones cost mostly interpreter time)."""
    tracer = Tracer(wl.mods)
    lapack = [0.0]

    def timed(fn):
        def call(a, *args, **kwargs):
            t0 = perf_counter()
            out = fn(a, *args, **kwargs)
            if (a[0] if isinstance(a, tuple) else a).shape[0] >= BIG_LU:
                lapack[0] += perf_counter() - t0
            return out
        return call

    qp_mod = wl.mods.qp_solver
    t0 = perf_counter()
    with Patches((qp_mod, "lu_factor", timed), (qp_mod, "lu_solve", timed)):
        wl.replay_prefix(tracer)
    wall = perf_counter() - t0
    qp = [s for s in tracer.spans if s.name == "qp_solver.solve_qp"]
    nlp = [s for s in tracer.spans if s.name == "nlp_solver.solve_nlp"]
    return {
        "qp_solver.calls": len(qp),
        "qp_solver.admm_iters": sum(s.info["iterations"] for s in qp),
        "qp_solver.lu_factors": sum(s.name == "qp_solver.lu_factor" for s in tracer.spans),
        "qp_solver.lu_solves": sum(s.leaf_calls("qp_solver.lu_solve") for s in tracer.spans),
        "nlp_solver.sqp_iters": sum(s.info["iterations"] for s in nlp),
    }, lapack[0] / wall


OP_SPANS = ("controller.lmpc_step", "controller.nmpc_step", "feasibility.is_state_feasible")


def traced_counters(spans):
    """[episode, status, iterations, QP solves, ADMM iterations, LU
    factorizations, LU solves] per op of a trace, in call order. A check's
    status and iterations are those of its phase-I QP, as in the timed pass."""
    by_id = {s.id: s for s in spans}
    ops = {s.id: [0, 0, 0, 0] for s in spans if s.name in OP_SPANS}
    last_qp = {}

    def op_of(s):
        while s is not None and s.id not in ops:
            s = by_id.get(s.parent)
        return s

    for s in spans:
        op = op_of(s)
        if op is None:
            continue
        c = ops[op.id]
        c[3] += s.leaf_calls("qp_solver.lu_solve")
        if s.name == "qp_solver.solve_qp":
            c[0] += 1
            c[1] += s.info["iterations"]
            last_qp[op.id] = s.info["status"]
        elif s.name == "qp_solver.lu_factor":
            c[2] += 1
    rows = []
    for s in sorted((by_id[i] for i in ops), key=lambda s: s.start):
        if s.name == "feasibility.is_state_feasible":
            status, iters = last_qp.get(s.id, "optimal"), ops[s.id][1]
        else:
            status, iters = s.info["status"], s.info["iterations"]
        rows.append([s.episode, status, iters] + ops[s.id])
    return rows


def by_cycle(rows, key):
    """{cycle key: [per-op counters]}; a key seen twice must repeat exactly."""
    episodes = {}
    for episode, *counters in rows:
        episodes.setdefault(episode, []).append(counters)
    grouped, same = {}, True
    for episode, ops in episodes.items():
        same = same and grouped.setdefault(key(episode), ops) == ops
    return grouped, same


def repeat_check(wl, workload, prefixes, untraced, traced=None):
    """Work counters must repeat exactly for a fixed seed: the two prefix
    replays, every op of the traced replay against the timed pass, episodes
    that do the same work within a run, and every episode a run shares with
    earlier runs of the same seed and sources (kept in a file in OUT_DIR)."""
    prefix, again = prefixes
    runs = {"prefix": {"0": [prefix]}}
    ok = prefix == again
    for name, rows in (("untraced", untraced), ("traced", traced)):
        if rows is not None:
            runs[name], same = by_cycle(rows, wl.cycle_key)
            ok = ok and same
    if traced is not None:
        ok = ok and [row[:3] for row in traced] == untraced
    path = os.path.join(OUT_DIR, f"repeat-{workload}-{wl.seed}-{wl.mods.digest}.json")
    stored, shared = {}, 0
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    for name, grouped in runs.items():
        earlier = stored.setdefault(name, {})
        for key, ops in grouped.items():
            if key in earlier:
                shared += 1
                ok = ok and earlier[key] == ops
            else:
                earlier[key] = ops
    with open(path + ".tmp", "w") as fh:
        json.dump(stored, fh)
    os.replace(path + ".tmp", path)
    return ok, shared


# ---------------------------------------------------------------------------
# Metrics

def pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(tl):
    """Times scaled to the reference speed; raw wall-clock values alongside."""
    ops = len(tl.ops)
    norm_ms = [1e3 * tl.norm(t0, t1) for t0, t1 in tl.ops]
    raw_ms = [1e3 * (t1 - t0) for t0, t1 in tl.ops]
    norm_busy = tl.busy(scaled=True)
    raw_busy = tl.busy(scaled=False)
    # set-up does no large LU: scaled by the interpreter probe alone
    setups = [sum(tl.norm(a, b, 0.0) for a, b in s) for s in tl.setups]
    metrics = {
        "op_ms.p50": (pct(norm_ms, 50), "ms"),
        "op_ms.p90": (pct(norm_ms, 90), "ms"),
        "ops_per_s": (ops / norm_busy, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # p99 rests on fewer than ten samples on lmpc-sparse, so it is not gated
    raw = {
        "op_ms.p99": (pct(norm_ms, 99), "ms"),
        "raw.op_ms.p50": (pct(raw_ms, 50), "ms"),
        "raw.op_ms.p90": (pct(raw_ms, 90), "ms"),
        "raw.op_ms.p99": (pct(raw_ms, 99), "ms"),
        "raw.ops_per_s": (ops / raw_busy, "1/s"),
        "raw.setup_s": (statistics.median(sum(b - a for a, b in s) for s in tl.setups), "s"),
        "host.speed": (ops and statistics.median(tl.speed(a, b) for a, b in tl.ops), "ratio"),
    }
    return metrics, raw, raw_busy


def per_layer(spans, csv_bytes, overhead):
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def named(name):
        return by.get(name, [])

    def total_s(name):
        return sum(s.dur for s in named(name))

    def med_ms(items, key=lambda s: s.dur):
        return 1e3 * statistics.median(key(s) for s in items) if items else 0.0

    def leaf_calls(name):
        return sum(s.leaf_calls(name) for s in spans)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = named("controller.lmpc_step") + named("controller.nmpc_step")
    checks = named("feasibility.is_state_feasible")
    ops = len(steps) + len(checks)
    qp = named("qp_solver.solve_qp")
    qp_iters = sum(s.info["iterations"] for s in qp)
    nlp = named("nlp_solver.solve_nlp")
    nlp_ids = {s.id for s in nlp}
    qp_in_nlp = [s for s in qp if s.parent in nlp_ids]
    sqp_iters = sum(s.info["iterations"] for s in nlp)
    check_ids = {s.id for s in checks}
    qp_in_check = [s for s in qp if s.parent in check_ids]
    jac_s = total_s("nlp_solver.jacobian") + total_s("numerics.finite_diff_jacobian")
    metrics = {
        "qp_solver.calls": (ratio(len(qp), ops), "1/op"),
        "qp_solver.admm_iters": (ratio(qp_iters, ops), "1/op"),
        "qp_solver.iters_per_solve.p50": (
            statistics.median(s.info["iterations"] for s in qp) if qp else 0.0, "count"),
        "qp_solver.solve_ms.p50": (med_ms(qp), "ms"),
        # QP time outside factorizations, per ADMM iteration
        "qp_solver.us_per_iter": (
            1e6 * ratio(sum(s.self_s + s.leaf_s("qp_solver.lu_solve") for s in qp), qp_iters),
            "us"),
        "qp_solver.lu_factors": (ratio(len(named("qp_solver.lu_factor")), ops), "1/op"),
        "qp_solver.lu_solves": (ratio(leaf_calls("qp_solver.lu_solve"), ops), "1/op"),
        "qp_solver.factor_ms": (1e3 * ratio(total_s("qp_solver.lu_factor"), ops), "ms/op"),
        "qp_solver.max_iter_frac": (
            ratio(sum(s.info["status"] == "max_iterations" for s in qp), len(qp)), "fraction"),
        "condense.assemble_ms.p50": (med_ms(named("condense.assemble")), "ms"),
        "condense.build_ms": (1e3 * ratio(total_s("condense.build"), ops), "ms/op"),
        "nlp_solver.calls": (ratio(len(nlp), ops), "1/op"),
        "nlp_solver.sqp_iters": (ratio(sqp_iters, ops), "1/op"),
        "nlp_solver.qp_per_iter": (ratio(len(qp_in_nlp), sqp_iters), "ratio"),
        "nlp_solver.admm_iters_per_step": (
            ratio(sum(s.info["iterations"] for s in qp_in_nlp), ops), "1/op"),
        "nlp_solver.elastic_frac": (ratio(sum(s.info["elastic"] for s in nlp), len(nlp)),
                                    "fraction"),
        "nlp_solver.self_ms.p50": (med_ms(nlp, lambda s: s.self_s), "ms"),
        "nlp_solver.residual_evals": (ratio(leaf_calls("nlp_solver.residual"), ops), "1/op"),
        "nlp_solver.jacobian_ms": (1e3 * ratio(jac_s, ops), "ms/op"),
        "numerics.fd_jac_calls": (ratio(len(named("numerics.finite_diff_jacobian")), ops),
                                  "1/op"),
        "numerics.fd_jac_ms": (1e3 * ratio(total_s("numerics.finite_diff_jacobian"), ops),
                               "ms/op"),
        "model.step_calls": (ratio(leaf_calls("model.step"), ops), "1/op"),
        "model.steady_state_ms": (1e3 * ratio(total_s("model.steady_state"), ops), "ms/op"),
        "controller.self_ms.p50": (med_ms(steps, lambda s: s.self_s), "ms"),
        "feasibility.check_ms.p50": (med_ms(checks), "ms"),
        "feasibility.feasible_frac": (
            ratio(sum(s.info["feasible"] for s in checks), len(checks)), "fraction"),
        "feasibility.qp_iters_per_check": (
            ratio(sum(s.info["iterations"] for s in qp_in_check), len(checks)), "1/op"),
        "cli.parse_ms": (med_ms(named("cli.parse_config")), "ms"),
        "cli.csv_write_ms": (med_ms(named("cli.write_csv")), "ms"),
        "cli.csv_bytes": (statistics.median(csv_bytes) if csv_bytes else 0.0, "bytes"),
        "trace_overhead_frac": (overhead, "fraction"),
    }
    return metrics, ops


# ---------------------------------------------------------------------------

def gate(wl, rec, repeat_ok):
    results, viol, viol_ok = wl.check(rec)
    judged = [r for r in results if r is not None]
    wrong = sum(r["wrong"] for r in judged)
    viol = max([viol] + [r["viol"] for r in judged])
    info = {
        "wrong_frac": (wrong / len(judged) if judged else 0.0, "fraction"),
        "viol_max": (viol, "1"),
        "opt_gap": (max([r["gap"] for r in judged], default=0.0), "fraction"),
        "checked": (len(judged), "count"),
        "unjudged": (len(results) - len(judged), "count"),
    }
    correct = bool(judged) and wrong == 0 and viol_ok and repeat_ok
    return correct, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def timeout(signum, frame):
        raise BenchError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, timeout)
    signal.alarm(DEADLINE_S)

    mods, import_s = load_mpckit(os.getcwd())
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    wl = WORKLOADS[args.workload](mods, args.seed, os.path.join(OUT_DIR, f"traj-{tag}.csv"))
    # the first replay also warms up: lazy imports and first-call costs are
    # paid before the timed pass
    counters, _ = replay_prefix(wl)
    again, blas_share = replay_prefix(wl)

    rec = wl.untraced(args.seconds / 2 if args.trace else args.seconds, blas_share)
    tl = rec["timeline"]
    metrics, raw, raw_busy = end_to_end(tl)
    attempted = len(tl.ops)
    failed = sum(s != "optimal" for s in tl.statuses)
    traced = None
    if args.trace:
        tracer = Tracer(mods)
        traced_s, csv_bytes = wl.traced(rec["episodes"], tracer)
        metrics, traced_ops = per_layer(tracer.spans, csv_bytes, traced_s / raw_busy - 1.0)
        if traced_ops != attempted:
            raise BenchError(f"traced replay ran {traced_ops} ops, the timed pass {attempted}")
        metrics["host.calib_ms"] = (statistics.median(tl.probe_ms("py")), "ms")
        tracer.dump(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
        traced = traced_counters(tracer.spans)
    repeat_ok, shared = repeat_check(wl, args.workload, (counters, again), tl.counters, traced)

    correct, info = gate(wl, rec, repeat_ok)
    info["fail_frac"] = (failed / attempted, "fraction")
    info["import_s"] = (import_s, "s")
    for kind in tl.marks:
        info[f"host.calib_ms.{kind}.start"] = (tl.probe_ms(kind)[0], "ms")
        info[f"host.calib_ms.{kind}.end"] = (tl.probe_ms(kind)[-1], "ms")
    info["blas_share"] = (blas_share, "fraction")
    with open(os.path.join(OUT_DIR, f"ops-{tag}.json"), "w") as fh:
        json.dump({"raw_ms": [1e3 * (b - a) for a, b in tl.ops],
                   "norm_ms": [1e3 * tl.norm(a, b) for a, b in tl.ops],
                   "statuses": tl.statuses, "ops": tl.ops, "marks": tl.marks}, fh)

    print(f"# mpckit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# ops={attempted} (percentiles over {attempted} samples: "
          f"{attempted / 10:.1f} beyond p90, {attempted / 100:.1f} beyond p99), "
          f"episodes={rec['episodes']}, "
          f"set-ups={len(tl.setups)}; times scaled to the reference speed "
          f"(host.speed = reference/actual)")
    for name, (value, unit) in list(metrics.items()) + list(raw.items()) + list(info.items()):
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"exact repeat: {'identical' if repeat_ok else 'DIFFER'} "
          f"({shared} recorded episodes compared with earlier runs); prefix counters "
          + json.dumps(counters))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
