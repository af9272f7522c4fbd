"""``suite``: the cross-kernel corpus evaluation (beyond the paper).

Runs every selected corpus member -- by default all ~11 registered
benchmarks, filterable with ``--tag``/``--kernel`` -- through the shared
sweep engine on every selected GPU and renders two cross-kernel tables:

- **model accuracy**: the Fig. 5 profile MAE of the Eq. 6 static time
  estimate and the Table VI static-vs-dynamic instruction-mix error,
  side by side for the whole corpus, so a model regression on *any*
  workload class (stencil, reduction, multi-pass, ...) is visible in
  one artifact;
- **autotuning quality**: the static module's choice (and the
  intensity-rule variant) against the exhaustively-searched optimum of
  each member's own evaluation space -- the Fig. 6 quality check,
  corpus-wide.

Each member is evaluated over its *own* declared tuning space
(:func:`repro.suite.corpus.corpus_space`), which honours structural
constraints such as tile-multiple thread counts.
"""

from __future__ import annotations

from repro.experiments.common import resolve_gpus, shared_engine
from repro.suite import (
    accuracy_row,
    corpus_members,
    corpus_sizes,
    corpus_space,
    quality_row,
)
from repro.util.tables import ascii_table

USES_SHARED_SWEEP = True
"""Measures through the shared engine: the runner keeps this experiment
in the coordinating process so it reuses the engine pool and cache."""


def run(full: bool = False, archs=None, kernels=None, tags=None) -> dict:
    gpus = resolve_gpus(archs)
    members = corpus_members(tags=tags, kernels=kernels)
    if not members:
        raise ValueError("no corpus members match the tag/kernel filters")
    engine = shared_engine()
    accuracy, quality = [], []
    for bm in members:
        space = corpus_space(bm, full)
        sizes = corpus_sizes(bm, full)
        for gpu in gpus:
            accuracy.append(
                accuracy_row(bm, gpu, space, sizes, engine=engine)
            )
            quality.append(
                quality_row(bm, gpu, space, sizes[-1], engine=engine)
            )
    return {
        "accuracy": accuracy,
        "quality": quality,
        "members": [bm.name for bm in members],
        "tags": {bm.name: list(bm.tags) for bm in members},
        "full": full,
    }


def render(result: dict) -> str:
    corpus = ", ".join(result["members"])
    acc = ascii_table(
        ["Kernel", "Arch", "Variants", "Time MAE", "Mix err", "Itns",
         "SIMD eff", "Count err"],
        [[r["kernel"], r["arch"], r["variants"], r["time_mae"],
          r["mix_err"], r["intensity"], f"{r['simd_eff']:.3f}",
          f"{r['count_err']:.2e}"] for r in result["accuracy"]],
        title=("Suite: model accuracy across the corpus "
               "(Eq. 6 profile MAE / static-vs-dynamic mix error / "
               "emulator back-validation)"),
    )
    qual = ascii_table(
        ["Kernel", "Arch", "Size", "Best TC", "Static TC",
         "Static t/t*", "RB t/t*", "Static impr."],
        [[r["kernel"], r["arch"], r["size"], r["best_tc"], r["static_tc"],
          f"{r['static_quality']:.3f}", f"{r['rb_quality']:.3f}",
          f"{r['static_reduction']:.3f}"] for r in result["quality"]],
        title=("\nSuite: autotuning quality (static choice vs. "
               "best-searched config)"),
    )
    tagged = "\n".join(
        f"  {name:12s} [{', '.join(result['tags'][name])}]"
        for name in result["members"]
    )
    return f"Corpus ({len(result['members'])}): {corpus}\n{tagged}\n\n" \
           f"{acc}\n{qual}"
