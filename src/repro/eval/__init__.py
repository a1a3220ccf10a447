"""Experiment harness regenerating every table and figure of the paper.

* :mod:`repro.eval.table1` — the main evaluation (paper Table 1): naïve
  vs. MIG rewriting vs. rewriting + compilation over the EPFL suite.
* :mod:`repro.eval.fig3` — the §3 motivating examples, reconstructed
  exactly from the paper's instruction listings.
* :mod:`repro.eval.ablations` — effort sweep, candidate-selection rules,
  allocator policy/endurance, output-polarity accounting
  (docs/cli.md#plimc-ablate).
* :mod:`repro.eval.reporting` — fixed-width tables and CSV export shared
  by the harness, the CLI, and the benchmarks.
"""

from repro.eval.table1 import Table1Result, Table1Row, format_table1, run_table1

__all__ = ["Table1Result", "Table1Row", "format_table1", "run_table1"]
