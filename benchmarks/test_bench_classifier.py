"""Extension bench: STATuner-style learned classifier vs the analytical T*.

The paper (Sec. V) contrasts its model-based T* range against STATuner's
single learned block size.  This bench trains the classifier on simulator
sweeps and checks both mechanisms against the empirical best thread count
per (kernel, size) cell.
"""

from repro.arch import K20
from repro.autotune.measure import Measurer, compile_options
from repro.codegen.compiler import compile_module
from repro.core.analyzer import StaticAnalyzer
from repro.core.classifier import (
    BLOCK_SIZE_CLASSES,
    extract_features,
    train_on_sweeps,
)
from repro.kernels import get_benchmark
from repro.util.tables import ascii_table


def test_bench_classifier_vs_tstar(benchmark):
    clf, data = benchmark.pedantic(
        train_on_sweeps, args=(K20,), kwargs=dict(sizes_per_benchmark=2),
        rounds=1, iterations=1,
    )
    rows = []
    hits_clf = cells = 0
    worst_tstar_ratio = worst_clf_ratio = 1.0
    for name in ("atax", "bicg", "matvec2d", "ex14fj"):
        bm = get_benchmark(name)
        size = bm.sizes[-1]
        measurer = Measurer(bm, K20)
        base = {"BC": 96, "UIF": 1, "PL": 16, "CFLAGS": ""}
        times = {
            tc: measurer.measure(dict(base, TC=tc), size).seconds
            for tc in BLOCK_SIZE_CLASSES
        }
        best_tc = min(times, key=times.get)
        module = compile_module(name, list(bm.specs),
                                compile_options(K20, base))
        pred = clf.predict(extract_features(module, bm.param_env(size)))
        rep = StaticAnalyzer(K20).analyze(
            list(bm.specs), bm.param_env(size), name=name
        )
        tstar = set(rep.suggestion.threads) & set(BLOCK_SIZE_CLASSES)
        tstar_best = min(times[t] for t in tstar)
        cells += 1
        hits_clf += int(pred == best_tc)
        worst_tstar_ratio = max(worst_tstar_ratio,
                                tstar_best / times[best_tc])
        worst_clf_ratio = max(worst_clf_ratio,
                              times[pred] / times[best_tc])
        rows.append([name, best_tc, pred,
                     str(sorted(tstar)),
                     f"{tstar_best / times[best_tc]:.2f}"])
    print("\n" + ascii_table(
        ["Kernel", "Empirical best TC", "Classifier", "T* (class sizes)",
         "T* best / optimum"],
        rows,
        title="Learned single prediction vs analytical T* range (K20)",
        align_right=False,
    ))
    # the classifier memorizes its training cells; the analytical range's
    # value is robustness: its best member must stay near the optimum
    assert hits_clf >= cells // 2
    assert worst_tstar_ratio <= 1.6
    print(f"classifier train-cell accuracy {hits_clf}/{cells}; "
          f"worst T* quality {worst_tstar_ratio:.2f}x, "
          f"worst classifier quality {worst_clf_ratio:.2f}x")
