"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(**kwargs) -> dict`` (structured results) and
``render(result) -> str`` (the ASCII table/figure).  The CLI
(``python -m repro.experiments.runner`` or the ``repro-experiments``
script) runs any subset; ``--full`` switches from the structure-preserving
reduced sweep to the paper's full 5,120-variant space.

Index:

====================  =====================================================
``table1``            GPU hardware parameters (Table I)
``table2``            Instruction throughput (Table II)
``fig1``              Branch divergence performance loss (Fig. 1)
``fig3``              The Orio tuning specification (Fig. 3 / Table III)
``fig4``              Thread-count histograms by rank (Fig. 4)
``table5``            Occupancy/register/thread statistics by rank (Tab. V)
``fig5``              Eq. 6 static time prediction MAE (Fig. 5)
``table6``            Static-vs-dynamic mix error rates (Table VI)
``table7``            Suggested parameters T*, [Ru:R*], S*, occ* (Tab. VII)
``fig6``              Search-space improvement, static vs rules (Fig. 6)
``fig7``              Occupancy calculator, current vs potential (Fig. 7)
``suite``             Cross-kernel corpus evaluation (beyond the paper)
``lint``              Static analysis over the registered corpus
====================  =====================================================
"""

from repro.experiments import common  # noqa: F401
