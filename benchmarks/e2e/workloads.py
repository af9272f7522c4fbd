"""The four end-to-end workloads and the function that runs one of them.

Each workload is a fixed amount of seeded work: a *population* of
operations, repeated in cycles, each cycle in its own seeded order.
Every cycle holds the whole population, so a run's mix of cheap and
expensive operations is the same for every seed and every run length;
the seed changes which inputs the operations use, not how many of each
kind there are.  The number of cycles follows from ``--seconds`` and a
nominal cycle time measured on the reference host (a 2-core Xeon), so
both commits of a comparison do the same work.

==============  ==========================================================
``sweep-cold``  Cold sweeps of the Table IV kernels through
                ``SweepEngine(jobs=1)`` into a fresh cache per cycle.
``sweep-warm``  Warm passes over a cache a separate process filled.
``tune-mix``    Closed-loop ``repro.api.tune`` requests, no cache.
``service-mix`` Two closed-loop clients against a server subprocess.
==============  ==========================================================

A workload's set-up is repeated (three times by default) on fresh state
and its median reported as ``setup_s``; the last set-up's state is the
one measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import geometric_mean, median

import layers
from speed import SpeedMeter, pin_to_one_cpu
from stats import percentile

from repro.api import SpaceSpec, TuneRequest, run_tune_request, tune
from repro.api.protocol import ProtocolError
from repro.arch.specs import ALL_GPUS, K20, get_gpu
from repro.autotune.measure import Measurer
from repro.autotune.search import config_key
from repro.autotune.space import Parameter, ParameterSpace
from repro.autotune.tuner import Autotuner
from repro.client import ReproClient, ServiceError
from repro.codegen.compiler import CompileOptions, compile_module
from repro.engine import CacheStore, SweepEngine
from repro.experiments.common import KERNEL_ORDER, reduced_space
from repro.kernels import get_benchmark, list_benchmarks
from repro.suite.corpus import corpus_space
from repro.suite.evaluate import emulator_ground_truth

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

MIN_OPS = 100
"""Operations per run: p90 needs at least ten samples beyond it."""

WAIT_SHARE = 1.5
"""The most a run waits out slow CPU episodes, as a share of its nominal
seconds (enough for a host that is slow 60% of the time)."""

GPUS = tuple(g.name for g in ALL_GPUS)

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
}
"""The end-to-end metrics every untraced run reports, with units."""


# -- plans: the seeded inputs ----------------------------------------------------

def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _space_doc(space: ParameterSpace, rng: random.Random, tc: int,
               tiny: bool = False) -> dict:
    """A JSON form of ``space`` keeping ``tc`` seeded thread counts (and,
    when ``tiny``, only the first value of every other axis)."""
    doc = {}
    for p in space.parameters:
        values = list(p.values)
        if p.name == "TC" and len(values) > tc:
            values = sorted(rng.sample(values, tc))
        elif tiny:
            values = values[:1]
        doc[p.name] = values
    return doc


def _space(doc: dict) -> ParameterSpace:
    return ParameterSpace([Parameter(k, tuple(v)) for k, v in doc.items()])


@dataclass
class Plan:
    """A workload's inputs for one seed."""

    workload: str
    seed: int
    population: list
    """One cycle's operations."""
    cycle_s: float
    """Nominal seconds per cycle on the reference host."""
    inputs: dict = field(default_factory=dict)
    """Inputs every operation shares (spaces, problems, ...)."""

    def cycles(self, seconds: float) -> int:
        least = math.ceil(MIN_OPS / len(self.population))
        return max(least, round(seconds / self.cycle_s))

    def ops(self, seconds: float) -> list:
        out = []
        for c in range(self.cycles(seconds)):
            rng = _rng(self.workload, self.seed, "cycle", c)
            order = list(self.population)
            rng.shuffle(order)
            out.extend(WORKLOADS[self.workload].draw(rng, order))
        return out


@dataclass
class OpResult:
    t0: float
    t1: float
    """``perf_counter`` times the operation started and ended."""
    work: int
    """Units of work done (points swept, requests, sessions)."""
    digest: str | None
    """SHA-256 of the operation's canonical output; ``None`` = failed."""
    evals: int = 0
    """Evaluations a managed service session ran through the fleet."""


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _measurements_text(measurements) -> str:
    # vars(), not asdict(): the same fields without asdict's deep copy,
    # which would dominate a warm pass's verification
    return json.dumps([vars(m) for m in measurements], sort_keys=True)


def _wire(result, drop_measurements: bool = False) -> str:
    """A session result's wire bytes, minus the session id (which differs
    between server and in-process runs by construction)."""
    doc = result.to_json()
    doc.pop("session_id")
    if drop_measurements:
        doc["measurements"] = []
    return json.dumps(doc, sort_keys=True, allow_nan=False)


def _op_span(state, tracer, index):
    """Start operation ``index``: wait out a slow CPU episode (see
    :meth:`speed.SpeedMeter.pace`), and open its span when traced."""
    if "pace" in state:
        state["pace"]()
    if tracer is None:
        return contextlib.nullcontext()
    tracer.set_request(index)
    return tracer.span("op", f"op-{index}")


def peak_rss_mb() -> float:
    """This process's peak resident set, in MB.

    ``VmHWM`` belongs to the process's own address space; ``ru_maxrss``
    would also count the parent's pages at ``fork`` time.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def child_env() -> dict:
    """Environment for the harness's own subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def raw_seconds(t0: float, t1: float) -> float:
    return t1 - t0


def busy_seconds(results: list, scale=raw_seconds) -> float:
    """Time with at least one operation in flight, each stretch measured
    by ``scale(t0, t1)`` (so neither the harness's bookkeeping between
    operations nor waiting out a slow episode counts)."""
    total, start, end = 0.0, None, None
    for r in sorted(results, key=lambda r: r.t0):
        if end is None or r.t0 > end:
            if end is not None:
                total += scale(start, end)
            start, end = r.t0, r.t1
        else:
            end = max(end, r.t1)
    return total + scale(start, end)


# -- workloads -------------------------------------------------------------------

class Workload:
    name = ""

    def plan(self, seed: int, tiny: bool = False) -> Plan:
        raise NotImplementedError

    def draw(self, rng: random.Random, order: list) -> list:
        """Turn one cycle's population order into operations."""
        return order

    def setup(self, plan: Plan, workdir: Path) -> dict:
        raise NotImplementedError

    def run(self, state: dict, ops: list, tracer=None) -> list[OpResult]:
        """Run ``ops``; return their results in order."""
        raise NotImplementedError

    def run_traced(self, state: dict, ops: list, tracer) -> list[OpResult]:
        tracer.install(layers.LIBRARY_PROBES)
        try:
            return self.run(state, ops, tracer)
        finally:
            tracer.uninstall()

    def check(self, state: dict, ops: list, results: list):
        """``(checks, outputs)``: named pass/fail checks and the small,
        seed-determined outputs folded into the run's digest."""
        raise NotImplementedError

    def teardown(self, state: dict) -> None:
        pass

    def peak_rss_mb(self, state: dict) -> float:
        return peak_rss_mb()


def _slice_space(op: dict, tiny: bool = False) -> ParameterSpace:
    """Sweep-cold's space for one operation: the whole reduced ``TC``
    axis at the operation's block count and compile options."""
    tc = reduced_space().by_name["TC"].values
    return ParameterSpace([
        Parameter("TC", tc[:2] if tiny else tc),
        Parameter("BC", (op["BC"],)),
        Parameter("UIF", (op["UIF"],)),
        Parameter("PL", (16,)),
        Parameter("CFLAGS", (op["CFLAGS"],)),
    ])


class SweepCold(Workload):
    name = "sweep-cold"

    def plan(self, seed, tiny=False):
        kernels = KERNEL_ORDER[:2] if tiny else KERNEL_ORDER
        gpus = GPUS[:1] if tiny else GPUS
        space = reduced_space().by_name
        compile_slices = [
            (u, c) for u in space["UIF"].values
            for c in space["CFLAGS"].values
        ]
        population = []
        for k in kernels:
            sizes = get_benchmark(k).sizes
            # the second and fourth sizes: ex14fj's fourth (N=64) is the
            # counting-heavy kind of point that dominates a cold pass
            for n in (sizes[:1] if tiny else (sizes[1], sizes[3])):
                for g in gpus:
                    for u, c in compile_slices[:1] if tiny else compile_slices:
                        population.append({"kernel": k, "gpu": g, "size": n,
                                           "UIF": u, "CFLAGS": c})
        return Plan(self.name, seed, population, cycle_s=3.3,
                    inputs={"tiny": tiny})

    def draw(self, rng, order):
        bcs = reduced_space().by_name["BC"].values
        return [dict(item, BC=rng.choice(bcs)) for item in order]

    def setup(self, plan, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        # warm-up: one cold sweep per kernel, into a throwaway cache
        firsts = {op["kernel"]: op
                  for op in self.draw(_rng(self.name, "warmup"),
                                      plan.population)}
        with SweepEngine(jobs=1, cache=workdir / "warmup.sqlite") as engine:
            for op in firsts.values():
                engine.sweep(get_benchmark(op["kernel"]), get_gpu(op["gpu"]),
                             _slice_space(op, plan.inputs["tiny"]),
                             [op["size"]])
        return {"plan": plan, "workdir": workdir, "stores": [],
                "engines": []}

    def run(self, state, ops, tracer=None):
        workdir, plan = state["workdir"], state["plan"]
        cycle = len(plan.population)
        results, engine = [], None
        for i, op in enumerate(ops):
            if i % cycle == 0:
                # a fresh cache per cycle: every point of the cycle misses
                store = CacheStore(
                    workdir / f"cold-{len(state['stores'])}.sqlite")
                engine = SweepEngine(jobs=1, cache=store)
                state["stores"].append(store)
                state["engines"].append(engine)
            bm, gpu = get_benchmark(op["kernel"]), get_gpu(op["gpu"])
            space = _slice_space(op, plan.inputs["tiny"])
            with _op_span(state, tracer, i):
                t0 = time.perf_counter()
                ms = engine.sweep(bm, gpu, space, [op["size"]])
                t1 = time.perf_counter()
            failed = bool(engine.last_failures)
            results.append(OpResult(
                t0, t1, len(ms),
                None if failed else _digest(_measurements_text(ms)),
            ))
        return results

    def check(self, state, ops, results):
        checks = []
        by_item: dict = {}
        for op, r in zip(ops, results):
            by_item.setdefault(json.dumps(op, sort_keys=True), set()).add(
                r.digest)
        unstable = [k for k, d in by_item.items() if len(d) != 1]
        repeated = sum(len(d) == 1 for d in by_item.values())
        checks.append(Check(
            "cold-sweeps-repeat-identically", not unstable,
            f"{len(unstable)} of {len(by_item)} distinct sweeps differed "
            "between repeats" if unstable else
            f"{repeated} distinct sweeps, every repeat identical",
        ))

        errors = {}
        for k in dict.fromkeys(op["kernel"] for op in ops):
            bm = get_benchmark(k)
            module = compile_module(bm.name, list(bm.specs),
                                    CompileOptions(gpu=K20))
            errors[k] = emulator_ground_truth(
                bm, module, bm.smallest_size)["count_err"]
        bad = {k: e for k, e in errors.items() if e != 0.0}
        checks.append(Check(
            "counts-match-emulator", not bad,
            f"count error {bad}" if bad else
            f"count error 0.0 for {', '.join(errors)} at smallest sizes",
        ))

        quality = self._quality(state, ops)
        checks.append(Check(
            "static-quality-from-cache", quality.pop("ok"),
            quality.pop("detail"),
        ))
        return checks, quality

    def _quality(self, state, ops) -> dict:
        """Fig. 6's quality numbers, from the last cycle's cache: best
        static (and static+rule) time over the exhaustive best, on the
        ``UIF=1`` / default-flags slice of each (kernel, GPU) at its
        largest swept size."""
        plan = state["plan"]
        last = ops[-len(plan.population):]
        largest: dict = {}
        for op in last:
            if op["UIF"] == 1 and op["CFLAGS"] == "":
                key = (op["kernel"], op["gpu"])
                if op["size"] > largest.get(key, {"size": 0})["size"]:
                    largest[key] = op
        static_q, rb_q, fracs, bad = [], [], [], []
        with SweepEngine(jobs=1, cache=state["stores"][-1]) as engine:
            for (k, g), op in sorted(largest.items()):
                space = _slice_space(op, plan.inputs["tiny"])
                n = op["size"]
                tuner = Autotuner(get_benchmark(k), get_gpu(g), space=space)
                best = tuner.tune(n, search="exhaustive",
                                  engine=engine).best_seconds
                for use_rule, out in ((False, static_q), (True, rb_q)):
                    got = tuner.tune(n, search="static", use_rule=use_rule,
                                     engine=engine)
                    q = got.best_seconds / best
                    out.append(q)
                    if not (math.isfinite(q) and q >= 1.0):
                        bad.append((k, g, use_rule, q))
                    if not use_rule:
                        fracs.append(got.search.evaluations / len(space))
            measured = engine.total_measured
        ok = not bad and measured == 0
        return {
            "ok": ok,
            "detail": (f"static/exhaustive {geometric_mean(static_q):.4f}, "
                       f"static+rule {geometric_mean(rb_q):.4f}, "
                       f"{measured} points re-measured"
                       + (f", bad ratios {bad}" if bad else "")),
            "static_quality": geometric_mean(static_q),
            "rb_quality": geometric_mean(rb_q),
            "static_space_frac": sum(fracs) / len(fracs),
        }

    def teardown(self, state):
        for engine in state["engines"]:
            engine.close()
        for store in state["stores"]:
            store.close()


def _triple_key(op: dict) -> str:
    return f"{op['kernel']}/{op['gpu']}/{op['size']}"


def fill(plan_path: str, cache_path: str, out_path: str) -> None:
    """Sweep-warm's fill pass, run in a process of its own so that the
    measuring process never runs a cold pass."""
    plan = json.loads(Path(plan_path).read_text())
    digests = {}
    with SweepEngine(jobs=1, cache=Path(cache_path)) as engine:
        for op in plan["population"]:
            ms = engine.sweep(get_benchmark(op["kernel"]), get_gpu(op["gpu"]),
                              _space(plan["spaces"][op["kernel"]]),
                              [op["size"]])
            digests[_triple_key(op)] = _digest(_measurements_text(ms))
    Path(out_path).write_text(json.dumps(digests))


class SweepWarm(Workload):
    name = "sweep-warm"

    def plan(self, seed, tiny=False):
        rng = _rng(self.name, seed)
        benchmarks = ([get_benchmark(k) for k in KERNEL_ORDER[:2]] if tiny
                      else list_benchmarks())
        spaces, population = {}, []
        for bm in benchmarks:
            spaces[bm.name] = _space_doc(corpus_space(bm), rng,
                                         tc=2 if tiny else 16, tiny=tiny)
            n = rng.choice(bm.sizes[:3])
            for g in GPUS[:1] if tiny else rng.sample(GPUS, 2):
                population.append({"kernel": bm.name, "gpu": g, "size": n})
        # one cycle is one warm pass over the whole filled cache
        return Plan(self.name, seed, population, cycle_s=0.072,
                    inputs={"spaces": spaces})

    def setup(self, plan, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(
            {"population": plan.population, "spaces": plan.inputs["spaces"]}))
        cache, fill_out = workdir / "warm.sqlite", workdir / "fill.json"
        subprocess.run(
            [sys.executable, "-c",
             "import sys, workloads; workloads.fill(*sys.argv[1:])",
             str(plan_path), str(cache), str(fill_out)],
            env=child_env(), check=True, timeout=600,
        )
        store = CacheStore(cache)
        state = {
            "engine": SweepEngine(jobs=1, cache=store), "store": store,
            "fill": json.loads(fill_out.read_text()),
            "spaces": {k: _space(d)
                       for k, d in plan.inputs["spaces"].items()},
            "misses": 0,
        }
        self.run(state, plan.population)  # warm-up: page the database in
        state["misses"] = 0
        return state

    def run(self, state, ops, tracer=None):
        engine, spaces = state["engine"], state["spaces"]
        results = []
        for i, op in enumerate(ops):
            bm, gpu = get_benchmark(op["kernel"]), get_gpu(op["gpu"])
            with _op_span(state, tracer, i):
                t0 = time.perf_counter()
                ms = engine.sweep(bm, gpu, spaces[bm.name], [op["size"]])
                t1 = time.perf_counter()
            stats = engine.last_stats
            state["misses"] += stats.total - stats.hits
            results.append(OpResult(t0, t1, len(ms),
                                    _digest(_measurements_text(ms))))
        return results

    def check(self, state, ops, results):
        fill = state["fill"]
        differ = sum(r.digest != fill[_triple_key(op)]
                     for op, r in zip(ops, results))
        return [
            Check("warm-sweeps-match-fill", differ == 0,
                  f"{differ} of {len(results)} warm sweeps differ from the "
                  "fill pass" if differ else
                  f"{len(results)} warm sweeps byte-identical to the fill"),
            Check("warm-hit-rate-1", state["misses"] == 0,
                  f"{state['misses']} cache misses in warm sweeps"),
        ], {}

    def teardown(self, state):
        state["engine"].close()
        state["store"].close()


TUNE_STRATEGIES = (
    ("static", False), ("static", True), ("random", False),
    ("genetic", False), ("annealing", False), ("simplex", False),
)


def _tune_args(op: dict, spaces: dict) -> dict:
    args = {"kernel": op["kernel"], "gpu": op["gpu"], "size": op["size"],
            "search": op["search"], "budget": op["budget"],
            "use_rule": op["use_rule"],
            "space": SpaceSpec.from_space(spaces[op["kernel"]])}
    if op["seed"] is not None:
        args["seed"] = op["seed"]
    return args


class TuneMix(Workload):
    name = "tune-mix"

    def plan(self, seed, tiny=False):
        rng = _rng(self.name, seed)
        benchmarks = ([get_benchmark(k) for k in KERNEL_ORDER[:2]] if tiny
                      else list_benchmarks())
        strategies = TUNE_STRATEGIES[1:3] if tiny else TUNE_STRATEGIES
        spaces = {bm.name: _space_doc(corpus_space(bm), rng,
                                      tc=4 if tiny else 32, tiny=tiny)
                  for bm in benchmarks}
        population = [
            {"kernel": bm.name, "search": s, "use_rule": r,
             "budget": 4 if tiny else 32}
            for bm in benchmarks for s, r in strategies
        ]
        return Plan(self.name, seed, population, cycle_s=2.7,
                    inputs={"spaces": spaces})

    def draw(self, rng, order):
        ops = []
        for item in order:
            sizes = get_benchmark(item["kernel"]).sizes[:3]
            ops.append(dict(
                item, gpu=rng.choice(GPUS), size=rng.choice(sizes),
                seed=None if item["search"] == "static"
                else rng.randrange(1 << 31),
            ))
        return ops

    def setup(self, plan, workdir):
        spaces = {k: _space(d) for k, d in plan.inputs["spaces"].items()}
        rng = _rng(self.name, plan.seed, "warmup")
        warmup = self.draw(rng, plan.population[:12])
        for op in warmup:
            tune(**_tune_args(op, spaces))
        return {"spaces": spaces, "seed": plan.seed}

    def run(self, state, ops, tracer=None):
        results = []
        for i, op in enumerate(ops):
            with _op_span(state, tracer, i):
                t0 = time.perf_counter()
                try:
                    out = tune(**_tune_args(op, state["spaces"]))
                except Exception:  # counted as failed; the run goes on
                    print(f"tune request {i} ({op}) raised:",
                          file=sys.stderr)
                    traceback.print_exc()
                    out = None
                t1 = time.perf_counter()
            results.append(OpResult(
                t0, t1, 1, None if out is None else _digest(_wire(out))))
        return results

    def check(self, state, ops, results):
        rng = _rng(self.name, state["seed"], "check")
        picked = sorted(rng.sample(range(len(ops)),
                                   max(1, round(0.05 * len(ops)))))
        differ = []
        with SweepEngine(jobs=2) as engine:
            for i in picked:
                again = tune(**_tune_args(ops[i], state["spaces"]),
                             engine=engine)
                if _digest(_wire(again)) != results[i].digest:
                    differ.append(i)
        return [Check(
            "pooled-rerun-identical", not differ,
            f"requests {differ} differ when re-run through "
            "SweepEngine(jobs=2)" if differ else
            f"{len(picked)} sampled requests byte-identical through "
            "SweepEngine(jobs=2)",
        )], {}


SERVICE_STRATEGIES = ("random", "genetic", "annealing", "static")
SESSION_MODES = ("managed",) * 3 + ("external",) * 2
"""Every (problem, strategy) runs three managed and two external sessions
per cycle, so the mix does not depend on the seed."""
POLL_S = 0.010
CLIENTS = 2
TERMINAL = ("done", "failed", "cancelled")


class Server:
    """A ``serve.py`` subprocess on a free port."""

    def __init__(self, workdir: Path, trace: bool = False):
        workdir.mkdir(parents=True, exist_ok=True)
        self.stats_path = workdir / "server-stats.json"
        self.log_path = workdir / "server.log"
        cmd = [sys.executable, str(HERE / "serve.py"),
               "--cache-dir", str(workdir / "store"),
               "--stats", str(self.stats_path)]
        if trace:
            cmd.append("--trace")
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, stderr=log,
                                         stdout=subprocess.DEVNULL,
                                         env=child_env())
        self.url = self._wait_ready()

    def _wait_ready(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if "listening on " in line:
                    return line.split("listening on ")[1].split()[0]
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(
            f"server did not start: {self.log_path.read_text()[-2000:]}")

    def stop(self) -> dict:
        """SIGTERM, wait, and return the launcher's stats document."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.stats_path.exists():
            return json.loads(self.stats_path.read_text())
        return {}


class ServiceMix(Workload):
    name = "service-mix"

    def plan(self, seed, tiny=False):
        # The problem pool -- one problem per kernel, at a fixed size, on
        # GPUs dealt evenly, over fixed thread counts -- is the same for
        # every seed: with so few problems, seed-drawn ones moved the
        # run's cost by more than the bounds allow.  The seed draws the
        # strategy seeds and the order of the sessions.
        rng = _rng(self.name, "problems")
        benchmarks = ([get_benchmark(k) for k in KERNEL_ORDER[:2]] if tiny
                      else list_benchmarks())
        strategies = ("random", "static") if tiny else SERVICE_STRATEGIES
        gpus = [GPUS[i % len(GPUS)] for i in range(len(benchmarks))]
        rng.shuffle(gpus)
        problems, spaces = [], {}
        for bm, gpu in zip(benchmarks, gpus):
            problems.append({"kernel": bm.name, "gpu": gpu,
                             "size": bm.sizes[0 if tiny else 1]})
            spaces[bm.name] = _space_doc(corpus_space(bm), rng,
                                         tc=4 if tiny else 16, tiny=tiny)
        population = [{"problem": p, "search": s, "mode": m}
                      for p in range(len(problems)) for s in strategies
                      for m in SESSION_MODES]
        return Plan(self.name, seed, population, cycle_s=8.8,
                    inputs={"problems": problems, "spaces": spaces,
                            "budget": 4 if tiny else 32})

    def draw(self, rng, order):
        return [dict(item, seed=None if item["search"] == "static"
                     else rng.randrange(1 << 31))
                for item in order]

    def setup(self, plan, workdir):
        spaces = {k: _space(d) for k, d in plan.inputs["spaces"].items()}
        problems = plan.inputs["problems"]
        server = Server(workdir / "server")
        # the tell values external sessions send: real measurements of
        # every point of every problem, so the client never measures
        table = {}
        for p, prob in enumerate(problems):
            space = spaces[prob["kernel"]]
            ms = Measurer(get_benchmark(prob["kernel"]),
                          get_gpu(prob["gpu"])).measure_many(
                [(c, prob["size"]) for c in space])
            for m in ms:
                table[(p, config_key(m.config))] = m.seconds
        return {"server": server, "url": server.url, "table": table,
                "spaces": spaces, "problems": problems, "workdir": workdir,
                "budget": plan.inputs["budget"], "seed": plan.seed}

    def request(self, state, op) -> TuneRequest:
        prob = state["problems"][op["problem"]]
        return TuneRequest(
            kernel=prob["kernel"], gpu=prob["gpu"], size=prob["size"],
            search=op["search"], budget=state["budget"], mode=op["mode"],
            space=SpaceSpec.from_space(state["spaces"][prob["kernel"]]),
            search_args={} if op["seed"] is None else {"seed": op["seed"]},
        )

    def _session(self, client, state, op, tracer) -> OpResult:
        request = self.request(state, op)
        t0 = time.perf_counter()
        try:
            status = client.submit(request)
            sid = status.session_id
            if op["mode"] == "managed":
                if tracer is not None:
                    tracer.count("client.managed_sessions")
                deadline = time.monotonic() + 120
                while status.state not in TERMINAL:
                    if time.monotonic() > deadline:
                        raise TimeoutError(f"session {sid} timed out")
                    time.sleep(POLL_S)
                    status = client.status(sid)
                if status.state != "done":
                    raise ServiceError(409, status.error)
            else:
                while True:
                    batch = client.ask(sid)
                    if batch.done:
                        break
                    client.tell(batch, [
                        state["table"][(op["problem"], config_key(c))]
                        for c in batch.configs
                    ])
            result = client.result(sid)
        except (ServiceError, ProtocolError, OSError, TimeoutError) as e:
            print(f"session {op} failed: {e!r}", file=sys.stderr)
            return OpResult(t0, time.perf_counter(), 1, None)
        t1 = time.perf_counter()
        managed = op["mode"] == "managed"
        return OpResult(t0, t1, 1, _digest(_wire(result)),
                        evals=result.evaluations if managed else 0)

    def run(self, state, ops, tracer=None):
        results: list = [None] * len(ops)
        cursor = iter(range(len(ops)))
        lock = threading.Lock()
        errors: list = []

        def client_loop():
            client = ReproClient(state["url"], timeout=120)
            try:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    with _op_span(state, tracer, i):
                        results[i] = self._session(client, state, ops[i],
                                                   tracer)
            except BaseException as e:  # re-raised on the main thread
                errors.append(e)

        threads = [threading.Thread(target=client_loop, name=f"client-{c}")
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        if errors:
            raise errors[0]
        if any(t.is_alive() for t in threads):
            raise RuntimeError("service clients did not finish in 600 s")
        return results

    def run_traced(self, state, ops, tracer):
        """A second, traced server with a fresh store, so the traced
        phase starts as cold as the untraced one."""
        server = Server(state["workdir"] / "traced-server", trace=True)
        tracer.install(layers.CLIENT_PROBES)
        try:
            return self.run(dict(state, url=server.url), ops, tracer)
        finally:
            tracer.uninstall()
            stats = server.stop()
            if "summary" in stats:
                tracer.absorb(stats["summary"], stats["events"])

    def check(self, state, ops, results):
        rng = _rng(self.name, state["seed"], "check")
        done = [i for i, r in enumerate(results) if r.digest is not None]
        picked = sorted(rng.sample(done, min(10, len(done))))
        differ = []
        for i in picked:
            local = run_tune_request(
                TuneRequest.from_json(dict(
                    self.request(state, ops[i]).to_json(), mode="managed"))
            )
            external = ops[i]["mode"] == "external"
            if _digest(_wire(local, external)) != results[i].digest:
                differ.append(i)
        stats = ReproClient(state["url"]).store_stats()
        evals = sum(r.evals for r in results)
        served = stats.measured + stats.served_from_cache
        return [
            Check("sessions-match-in-process", not differ,
                  f"sessions {differ} differ from in-process tune" if differ
                  else f"{len(picked)} sampled sessions byte-identical to "
                  "in-process tune"),
            Check("store-accounts-for-evaluations", served == evals,
                  f"store measured {stats.measured} + served "
                  f"{stats.served_from_cache} = {served}; managed sessions "
                  f"evaluated {evals}"),
        ], {}

    def teardown(self, state):
        state["server_stats"] = state["server"].stop()

    def peak_rss_mb(self, state):
        return state["server_stats"]["peak_rss_mb"]


WORKLOADS = {w.name: w for w in (SweepCold(), SweepWarm(), TuneMix(),
                                 ServiceMix())}


# -- running a workload ----------------------------------------------------------

def execute(name: str, seed: int, seconds: float, workdir: Path,
            trace: bool = False, tiny: bool = False, setups: int = 3):
    """Run one workload; return ``(result, chrome_trace or None)``.

    Untraced runs report :data:`END_TO_END`.  A traced run first runs
    the operations untraced, then the same operations with the layer
    wrappers installed, and reports :data:`layers.LAYER_METRICS`.
    Set-up and the timed runs happen on one CPU, whose speed a
    :class:`~speed.SpeedMeter` samples; every reported time is scaled
    to the reference speed.  The output checks run on every CPU.
    """
    wl = WORKLOADS[name]
    plan = wl.plan(seed, tiny)
    ops = plan.ops(seconds)
    setups_at, state = [], None
    tracer = traced = None
    cpus = pin_to_one_cpu()
    meter = SpeedMeter(wait_budget_s=WAIT_SHARE * seconds).start()
    try:
        try:
            for i in range(1 if trace else setups):
                if state is not None:
                    wl.teardown(state)
                t0 = time.perf_counter()
                state = wl.setup(plan, workdir / f"setup-{i}")
                setups_at.append((t0, time.perf_counter()))
            state["pace"] = meter.pace
            results = wl.run(state, ops)
            if trace:
                tracer = layers.Tracer()
                traced = wl.run_traced(state, ops, tracer)
        finally:
            meter.stop()
            os.sched_setaffinity(0, cpus)
        checks, outputs = wl.check(state, ops, results)
    finally:
        if state is not None:
            wl.teardown(state)

    digest = hashlib.sha256()
    for i, r in enumerate(results):
        digest.update(f"{i}:{r.digest}\n".encode())
    digest.update(json.dumps(outputs, sort_keys=True).encode())
    failed = sum(r.digest is None for r in results)
    ok = [r for r in results if r.digest is not None]
    work = sum(r.work for r in ok)

    if trace:
        same = [a.digest for a in results] == [b.digest for b in traced]
        checks.append(Check(
            "traced-outputs-identical", same,
            "traced operations gave the untraced outputs" if same else
            "traced operations changed outputs"))
        failed += sum(r.digest is None for r in traced)
        traced_s = busy_seconds(traced, meter.scaled)
        untraced_s = busy_seconds(results, meter.scaled)
        metrics = layers.layer_metrics(tracer.summary())
        metrics.update({
            "trace.ops": len(ops),
            "trace.wall_s": traced_s,
            "trace.overhead_frac": traced_s / untraced_s - 1,
        })
        metrics = {k: {"value": float(metrics[k]), "unit": unit,
                       "n": len(ops)}
                   for k, (unit, _better) in layers.LAYER_METRICS.items()}
        unscaled = {}
    else:
        def timings(scale) -> dict:
            latency_ms = [scale(r.t0, r.t1) * 1e3 for r in ok]
            return {
                "setup_s": (median(scale(*s) for s in setups_at),
                            len(setups_at)),
                "latency_ms_p50": (percentile(latency_ms, 50),
                                   len(latency_ms)),
                "latency_ms_p90": (percentile(latency_ms, 90),
                                   len(latency_ms)),
                "throughput": (work / busy_seconds(ok, scale), len(ok)),
            }

        values = timings(meter.scaled)
        values["peak_rss_mb"] = (wl.peak_rss_mb(state), 1)
        metrics = {k: {"value": v, "unit": END_TO_END[k], "n": n}
                   for k, (v, n) in values.items()}
        unscaled = {k: v for k, (v, _n) in timings(raw_seconds).items()}

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "ops": len(ops),
        "attempted": len(ops) * (2 if trace else 1),
        "failed": failed,
        "correct": all(c.ok for c in checks),
        "checks": [asdict(c) for c in checks],
        "metrics": metrics,
        "unscaled": unscaled,
        "speed": {"samples": meter.samples,
                  "mean_factor": meter.factor(-math.inf, math.inf),
                  "waited_s": meter.waited_s},
        "outputs": outputs,
        "outputs_digest": digest.hexdigest(),
    }
    return result, (tracer.chrome_trace() if tracer is not None else None)
