"""Nelder-Mead simplex search mapped onto the discrete lattice.

The simplex lives in continuous coordinate space (one dimension per
parameter, in index units); every evaluation snaps to the nearest lattice
point.  Standard reflection / expansion / contraction / shrink moves with
restart on degenerate simplices.

Initial, restart, and shrink simplices are whole ask/tell batches (an
engine-backed objective measures them in parallel and serves repeats
from the cache); the inherently sequential reflection / expansion /
contraction probes go out as single-point batches.  Snapped points that
were already evaluated are answered from the evaluation cache without
charging the budget, and when the budget runs out the strategy is
terminated cleanly -- no ``inf`` sentinels ever enter the simplex
ordering.

Most moves snap to points already evaluated, so a run makes many more
moves than it measures points, and each move must be cheap.  Vertices
are lists of Python floats, and every step computes what the NumPy form
of the algorithm computes, bit for bit:

- the centroid is a row-by-row left fold divided by the row count, as
  ``np.mean(rows, axis=0)`` computes it;
- the degeneracy test is ``np.allclose``'s rule,
  ``|a - b| <= 1e-8 + 1e-5 * |b|``, with equal values close;
- a snap rounds half to even (Python's ``round``, like ``np.round``) and
  clamps each index to its axis.

Only the vertex order still comes from NumPy (``np.argsort``).
"""

from __future__ import annotations

import numpy as np

from repro.autotune.search.base import Search
from repro.autotune.space import ParameterSpace
from repro.util.rng import rng_for


def _close(a: list, b: list) -> bool:
    """``np.allclose(a, b)`` for finite coordinates."""
    return all(x == y or abs(x - y) <= 1e-8 + 1e-5 * abs(y)
               for x, y in zip(a, b))


def _centroid(rows: list) -> list:
    """``np.mean(rows, axis=0)`` over a simplex's n rows of n coordinates:
    a left fold over rows, then a divide.  (NumPy sums one column of 8 or
    more rows pairwise instead; a simplex never has that shape.)"""
    total = rows[0]
    for row in rows[1:]:
        total = [s + x for s, x in zip(total, row)]
    n = len(rows)
    return [s / n for s in total]


class NelderMeadSearch(Search):
    name = "simplex"

    def __init__(self, budget: int = 150, seed: int | None = None,
                 alpha: float = 1.0, gamma: float = 2.0,
                 rho: float = 0.5, sigma: float = 0.5):
        if budget <= 2:
            raise ValueError("budget must exceed 2")
        self.budget = budget
        self.seed = seed
        self.alpha, self.gamma, self.rho, self.sigma = alpha, gamma, rho, sigma

    def _proposals(self, space: ParameterSpace, budget):
        n_budget = budget if budget is not None else self.budget
        rng = rng_for("search", "simplex", self.seed)
        dims = len(space.parameters)
        axes = [(p.name, p.values, len(p) - 1) for p in space.parameters]
        alpha, gamma, rho, sigma = (self.alpha, self.gamma, self.rho,
                                    self.sigma)

        def snap(x: list) -> dict:
            config = {}
            for (name, values, top), c in zip(axes, x):
                i = round(c)
                config[name] = values[0 if i < 0 else top if i > top else i]
            return config

        def random_simplex() -> list:
            base = [float(rng.integers(len(p))) for p in space.parameters]
            pts = [base]
            for d in range(dims):
                v = list(base)
                span = max(1.0, (len(space.parameters[d]) - 1) / 3.0)
                v[d] += span if rng.random() < 0.5 else -span
                pts.append(v)
            return pts

        simplex = random_simplex()
        values = list((yield [snap(x) for x in simplex]))

        # continuous coordinates can converge while snapping to the same
        # lattice points (charging nothing), so bound the move count
        max_moves = 50 * n_budget + 100
        for _move in range(max_moves):
            # np.argsort is not stable, and its order among tied values
            # follows the host's SIMD level, so on ties the answer can
            # differ between hosts (ROADMAP item 1)
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            centroid = _centroid(simplex[:-1])
            worst = simplex[-1]

            if _close(simplex[0], worst):
                simplex = random_simplex()  # degenerate: restart
                values = list((yield [snap(x) for x in simplex]))
                continue

            refl = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
            f_refl = (yield [snap(refl)])[0]
            if values[0] <= f_refl < values[-2]:
                simplex[-1], values[-1] = refl, f_refl
            elif f_refl < values[0]:
                exp = [c + gamma * (r - c) for c, r in zip(centroid, refl)]
                f_exp = (yield [snap(exp)])[0]
                if f_exp < f_refl:
                    simplex[-1], values[-1] = exp, f_exp
                else:
                    simplex[-1], values[-1] = refl, f_refl
            else:
                contr = [c + rho * (w - c) for c, w in zip(centroid, worst)]
                f_contr = (yield [snap(contr)])[0]
                if f_contr < values[-1]:
                    simplex[-1], values[-1] = contr, f_contr
                else:
                    best = simplex[0]
                    simplex = [best] + [
                        [b + sigma * (x - b) for b, x in zip(best, v)]
                        for v in simplex[1:]
                    ]
                    shrunk = list((yield [snap(x) for x in simplex[1:]]))
                    values = [values[0]] + shrunk
