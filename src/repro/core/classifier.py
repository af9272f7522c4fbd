"""A STATuner-style learned block-size classifier (paper Sec. V / VII).

The paper contrasts its model-based approach with STATuner, which "uses
machine learning to build a classifier model trained on a CUDA benchmark
suite" from static metrics, predicting a single best block size; the
paper's future work plans "machine learning for code classification" to
complement the analytical models.

This module provides that baseline so the two philosophies can be compared
inside one framework:

- :func:`extract_features` turns a compiled benchmark into the STATuner
  feature vector -- instruction-mix fractions, intensity, register usage,
  shared memory, loop count, divergence -- all static;
- :class:`BlockSizeClassifier` is a multinomial logistic-regression
  classifier (plain NumPy, batch gradient descent) over thread-count
  classes;
- :func:`train_on_sweeps` builds a training set by sweeping benchmarks on
  the simulator and labelling each with its best thread count.

The comparison experiment lives in ``benchmarks/test_bench_classifier.py``:
the learned model predicts one block size, the paper's analytical T* a
*range* -- exactly the trade-off Sec. V discusses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.specs import GPUSpec
from repro.arch.throughput import InstrCategory
from repro.codegen.compiler import CompiledModule
from repro.core.divergence import analyze_divergence
from repro.core.instruction_mix import static_mix_module
from repro.ptx.cfg import build_cfg

#: thread-count classes the classifier predicts (powers of two, like
#: STATuner's candidate block sizes)
BLOCK_SIZE_CLASSES = (64, 128, 256, 512, 1024)

_FEATURE_CATS = (
    InstrCategory.FP32,
    InstrCategory.INT_ADD32,
    InstrCategory.SHIFT,
    InstrCategory.LOG_SIN_COS,
    InstrCategory.LDST,
    InstrCategory.PRED_CTRL,
    InstrCategory.MOVE,
)

FEATURE_NAMES = tuple(
    [f"frac_{c.name.lower()}" for c in _FEATURE_CATS]
    + ["intensity", "regs_per_thread", "smem_kb", "loops", "divergent",
       "log_extent"]
)


def extract_features(module: CompiledModule, env: dict) -> np.ndarray:
    """The static feature vector of one compiled benchmark."""
    mix = static_mix_module(module, env)
    fracs = mix.fractions()
    feats = [fracs.get(c, 0.0) for c in _FEATURE_CATS]
    itns = mix.intensity
    feats.append(min(itns, 32.0) / 32.0 if np.isfinite(itns) else 1.0)
    feats.append(module.regs_per_thread / 64.0)
    feats.append(module.static_smem_bytes / 49152.0)
    loops = sum(
        len(build_cfg(ck.ir).natural_loops()) for ck in module
    )
    feats.append(min(loops, 8) / 8.0)
    div = sum(
        analyze_divergence(ck).divergent_branches for ck in module
    )
    feats.append(min(div, 4) / 4.0)
    extent = 1.0
    from repro.codegen.ast_nodes import evaluate_expr

    for ck in module:
        if ck.parallel_extent is not None:
            extent = max(extent, float(evaluate_expr(ck.parallel_extent, env)))
    feats.append(np.log10(extent) / 8.0)
    return np.asarray(feats, dtype=float)


@dataclass
class TrainingSet:
    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,) indices into BLOCK_SIZE_CLASSES
    tags: list            # provenance strings


class BlockSizeClassifier:
    """Multinomial logistic regression over block-size classes."""

    def __init__(self, n_features: int = len(FEATURE_NAMES),
                 n_classes: int = len(BLOCK_SIZE_CLASSES)):
        self.weights = np.zeros((n_features, n_classes))
        self.bias = np.zeros(n_classes)
        self.trained = False

    @staticmethod
    def _softmax(z: np.ndarray) -> np.ndarray:
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def fit(self, data: TrainingSet, epochs: int = 400,
            lr: float = 0.5, l2: float = 1e-3) -> list:
        """Batch gradient descent; returns the loss trajectory."""
        x, y = data.features, data.labels
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("malformed training set")
        n, _ = x.shape
        onehot = np.zeros((n, len(BLOCK_SIZE_CLASSES)))
        onehot[np.arange(n), y] = 1.0
        losses = []
        for _ in range(epochs):
            probs = self._softmax(x @ self.weights + self.bias)
            grad_w = x.T @ (probs - onehot) / n + l2 * self.weights
            grad_b = (probs - onehot).mean(axis=0)
            self.weights -= lr * grad_w
            self.bias -= lr * grad_b
            losses.append(
                float(-np.log(probs[np.arange(n), y] + 1e-12).mean())
            )
        self.trained = True
        return losses

    def predict(self, features: np.ndarray) -> int:
        """Predicted block size (a single value, like STATuner)."""
        if not self.trained:
            raise RuntimeError("classifier is not trained")
        f = np.atleast_2d(features)
        probs = self._softmax(f @ self.weights + self.bias)
        return int(BLOCK_SIZE_CLASSES[int(np.argmax(probs[0]))])

    def predict_proba(self, features: np.ndarray) -> dict:
        f = np.atleast_2d(features)
        probs = self._softmax(f @ self.weights + self.bias)[0]
        return dict(zip(BLOCK_SIZE_CLASSES, probs.tolist()))


def _nearest_class(tc: int) -> int:
    diffs = [abs(tc - c) for c in BLOCK_SIZE_CLASSES]
    return int(np.argmin(diffs))


def train_on_sweeps(
    gpu: GPUSpec,
    benchmark_names=("atax", "bicg", "matvec2d", "ex14fj"),
    sizes_per_benchmark: int = 3,
) -> tuple[BlockSizeClassifier, TrainingSet]:
    """Build a labelled corpus from simulator sweeps and fit the model.

    Each (benchmark, size, unroll, fast-math) cell contributes one sample:
    features from static analysis, label = the empirically best thread
    count of a TC sweep at fixed BC.
    """
    from repro.autotune.measure import Measurer, compile_options
    from repro.codegen.compiler import compile_module
    from repro.kernels import get_benchmark

    rows, labels, tags = [], [], []
    for name in benchmark_names:
        bm = get_benchmark(name)
        sizes = bm.sizes[-sizes_per_benchmark:]
        for size in sizes:
            for uif, flags in ((1, ""), (3, "-use_fast_math")):
                measurer = Measurer(bm, gpu)
                cfgbase = {"BC": 96, "UIF": uif, "PL": 16, "CFLAGS": flags}
                best_tc, best_t = None, float("inf")
                for tc in BLOCK_SIZE_CLASSES:
                    m = measurer.measure(dict(cfgbase, TC=tc), size)
                    if m.seconds < best_t:
                        best_t, best_tc = m.seconds, tc
                module = compile_module(name, list(bm.specs),
                                        compile_options(gpu, cfgbase))
                rows.append(extract_features(module, bm.param_env(size)))
                labels.append(_nearest_class(best_tc))
                tags.append(f"{name}/N={size}/uif={uif}/{flags or 'nofm'}")
    data = TrainingSet(
        features=np.vstack(rows),
        labels=np.asarray(labels, dtype=int),
        tags=tags,
    )
    clf = BlockSizeClassifier()
    clf.fit(data)
    return clf, data
