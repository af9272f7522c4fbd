"""Fig. 6: improved search time over exhaustive autotuning.

For every kernel and architecture, the improvement is the fraction of the
exhaustive search space the static analyzer removes:

- "Static": the ``TC`` axis reduced from 32 settings to ``|T*|``
  (e.g. 4 on Kepler -> 87.5% improvement);
- "RB": the intensity rule (Sec. III-C) further halves ``T*``
  (-> ~93.8% improvement).

The experiment also verifies the *quality* of the pruned search: the best
variant found inside the reduced space, relative to the exhaustive
optimum, at the largest input size.  The black-box strategies the paper
compares against (random, simulated annealing, genetic, Nelder-Mead) run
at the same measurement budget the static module spends, so the table
shows what that budget buys without the model.  Every strategy -- model-
guided and black-box alike -- evaluates in ask/tell batches through the
shared sweep engine, so a re-run against a warm cache measures nothing.
"""

from __future__ import annotations

from repro.autotune.tuner import Autotuner
from repro.experiments.common import (
    resolve_gpus,
    resolve_kernels,
    shared_engine,
    sizes_for,
    space_for,
)
from repro.kernels import get_benchmark
from repro.util.tables import ascii_bar_chart, ascii_table

HEURISTICS = ("random", "annealing", "genetic", "simplex")
"""The black-box baselines, run at the static module's budget."""


def run(full: bool = False, archs=None, kernels=None,
        verify_quality: bool = True, heuristics=HEURISTICS) -> dict:
    gpus = resolve_gpus(archs)
    names = resolve_kernels(kernels)
    space = space_for(full)
    engine = shared_engine()
    heuristics = tuple(heuristics or ())
    rows = []
    for kernel in names:
        bm = get_benchmark(kernel)
        size = sizes_for(kernel, full)[-1]
        for gpu in gpus:
            tuner = Autotuner(bm, gpu, space=space)
            entry = {"kernel": kernel, "arch": gpu.name}
            if verify_quality:
                exhaustive = tuner.tune(size=size, search="exhaustive",
                                        engine=engine)
                base_best = exhaustive.best_seconds
            for label, use_rule in (("static", False), ("rb", True)):
                out = tuner.tune(size=size, search="static",
                                 use_rule=use_rule, engine=engine)
                entry[f"{label}_improvement"] = out.search.space_reduction
                entry[f"{label}_evals"] = out.search.evaluations
                if verify_quality:
                    entry[f"{label}_quality"] = (
                        out.best_seconds / base_best if base_best else 1.0
                    )
            # black-box baselines at the static budget, batched through
            # the same engine
            budget = entry["static_evals"]
            for name in heuristics:
                out = tuner.tune(size=size, search=name, budget=budget,
                                 engine=engine)
                entry[f"{name}_evals"] = out.search.evaluations
                if verify_quality:
                    entry[f"{name}_quality"] = (
                        out.best_seconds / base_best if base_best else 1.0
                    )
            rows.append(entry)
    return {"rows": rows, "space_size": len(space), "full": full,
            "heuristics": list(heuristics)}


def render(result: dict) -> str:
    has_quality = "static_quality" in result["rows"][0]
    headers = ["Kernel", "Arch", "Static impr.", "RB impr.",
               "Static evals", "RB evals"]
    if has_quality:
        headers += ["Static t/t_opt", "RB t/t_opt"]
    body = []
    for r in result["rows"]:
        row = [r["kernel"], r["arch"],
               f"{r['static_improvement']:.3f}",
               f"{r['rb_improvement']:.3f}",
               r["static_evals"], r["rb_evals"]]
        if has_quality:
            row += [f"{r['static_quality']:.3f}", f"{r['rb_quality']:.3f}"]
        body.append(row)
    table = ascii_table(
        headers, body,
        title=(f"Fig. 6: search-space improvement over exhaustive "
               f"({result['space_size']} variants)"),
    )
    heuristics = result.get("heuristics") or []
    if heuristics:
        headers2 = ["Kernel", "Arch", "Strategy", "Evals"]
        if has_quality:
            headers2.append("t/t_opt")
        body2 = []
        for r in result["rows"]:
            for name in heuristics:
                row = [r["kernel"], r["arch"], name, r[f"{name}_evals"]]
                if has_quality:
                    row.append(f"{r[f'{name}_quality']:.3f}")
                body2.append(row)
        table += "\n" + ascii_table(
            headers2, body2,
            title=("\nBlack-box strategies at the static budget "
                   "(batched through the sweep engine):"),
        )
    labels, values = [], []
    for r in result["rows"]:
        labels.append(f"{r['kernel'][:8]:8s}/{r['arch']:5s} static")
        values.append(r["static_improvement"])
        labels.append(f"{r['kernel'][:8]:8s}/{r['arch']:5s} RB")
        values.append(r["rb_improvement"])
    chart = ascii_bar_chart(labels, values, max_value=1.0,
                            title="\nImprovement (fraction of space removed):",
                            fmt="{:.1%}")
    return table + "\n" + chart
