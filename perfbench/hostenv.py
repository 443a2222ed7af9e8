"""Process environment the measurements assume; import before numpy.

Two settings, both measured on this 2-core shared host:

* one BLAS thread.  The program's matmuls are small; a second
  OpenBLAS thread made the 16 MB serial engine run ~1.5x *slower* and
  its time erratic.
* one CPU.  Rank threads of the ``sim`` backend are cooperative (one
  runnable at a time), so a hand-off to a thread on the other core is
  pure wake-up latency: unpinned, identical broker sessions ran
  bimodally at 450-900 q/s; pinned, 830-880 q/s.

Neither is a knob of the program under test: they fix where it runs.
"""

from __future__ import annotations

import os


def pin() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
