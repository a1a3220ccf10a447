"""Shared exhaustive-check input-count thresholds.

Both functional checkers in this package switch from exhaustive truth-table
comparison to randomized bit-parallel simulation once a circuit has too many
primary inputs for ``2^n`` patterns to be practical.  The two thresholds
live here — one module, two named constants — so the cut-over points cannot
drift apart silently:

* :data:`EXHAUSTIVE_EQUIVALENCE_LIMIT` (``14``) — used by
  :func:`repro.mig.equivalence.equivalent`.  MIG-vs-MIG comparison only
  simulates the two graphs, so one 16384-bit-packed pass per node is cheap
  and 2^14 assignments stay well under a second even for the larger
  registry circuits.
* :data:`EXHAUSTIVE_VERIFY_LIMIT` (``12``) — used by
  :func:`repro.plim.verify.verify_program`.  Program-vs-MIG verification
  additionally executes every RM3 instruction on the
  :class:`~repro.plim.machine.PlimMachine` model (per-instruction bookkeeping
  on a full crossbar image).  On the ``plan`` kernel, one machine pass plus
  one simulation costs 2.8–4.1x one graph simulation (median 3.4x) across
  the 18 registry circuits at default scale and 4,096 patterns (2-vCPU
  Intel Xeon, CPython 3.11), so a check is about 1.5–2x heavier per
  pattern than simulating both graphs of a MIG-vs-MIG check — hence the
  exhaustive window is two inputs (4x) smaller.

Callers can always override the default per call; these constants are the
package-wide defaults, not hard caps.
"""

from __future__ import annotations

#: exhaustive window for MIG-vs-MIG equivalence checking (pure simulation)
EXHAUSTIVE_EQUIVALENCE_LIMIT = 14

#: exhaustive window for program-vs-MIG machine-model verification (heavier
#: per pattern than graph simulation, hence the smaller window)
EXHAUSTIVE_VERIFY_LIMIT = 12
