"""Reference timings of configurations too slow for a default benchmark run.

Run from the root of a checkout; takes about five minutes at this commit:

    python3 bench/reference.py

Each line gives one configuration and its wall time. Nothing is checked
here; the figures anchor the README and later before/after comparisons.
"""

import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

from cubelab import analysis, kernels  # noqa: E402
from cubelab.models import CurieWeiss, IsingGrid, exact_target  # noqa: E402
from cubelab.scores import ScoreField  # noqa: E402


def timed(label, fn):
    start = time.perf_counter()
    value = fn()
    print(f"{time.perf_counter() - start:9.2f} s  {label}", flush=True)
    return value


def main():
    ising = IsingGrid(2, 4, 0.4, 0.1)
    k = timed("dups_matrix, ising 2x4 (d=8), glauber, eta=0.4",
              lambda: kernels.dups_matrix(ising, ScoreField(ising, "glauber"), 0.4))
    timed("contraction_certificate of that kernel (1,024 transport solves)",
          lambda: analysis.contraction_certificate(k))
    cw = CurieWeiss(0.2, 0.0, 7)
    k = kernels.dups_matrix(cw, ScoreField(cw, "glauber"), 0.4)
    timed("contraction_certificate, curieweiss d=7 dups glauber eta=0.4 (448 solves)",
          lambda: analysis.contraction_certificate(k))
    cw = CurieWeiss(0.2, 0.0, 10)
    timed("dmaps_matrix, curieweiss d=10, glauber, eta=0.4",
          lambda: kernels.dmaps_matrix(cw, ScoreField(cw, "glauber"), 0.4))
    # dmaps is reversible, so its pi is the target; dups is not
    k = kernels.dups_matrix(cw, ScoreField(cw, "glauber"), 0.4)
    pi = timed("stationary of the dups kernel, same model", lambda: analysis.stationary(k))
    timed("wasserstein_hamming(pi, target) for that kernel, d=10",
          lambda: analysis.wasserstein_hamming(pi, exact_target(cw)))


if __name__ == "__main__":
    main()
