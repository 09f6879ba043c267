"""Put the checkout's ``src/`` and ``perfbench/`` on the import path and fix
the BLAS thread count, as ``run.py`` does, before numpy is imported."""

import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(PERFBENCH.parent / "src"), str(PERFBENCH)]

from run import THREAD_ENV  # noqa: E402

os.environ.update(THREAD_ENV)
