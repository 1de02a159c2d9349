"""Wall-time scaling of the FGBS pattern kernel.

Times :func:`tfsim.hafnian.hafnian_box`, the kernel behind
:func:`tfsim.fgbs.probability`, on the 2 x 2 block B of the width-3 two-mode
squeezed vacuum (widths 3 and 1/3, then the frequency beam splitter), whose A
is B (+) conj(B), for the patterns (n, n), n = 0..30 (best of three runs each),
and writes the results to CSV. The kernel fills an (n + 1)^2 box, so its work
grows as a power of n, not exponentially in the photon number as the memoized
subset recursion of the oracle :func:`tfsim.hafnian.hafnian` does. Each
P(n, n) = prefactor |R[n, n]|^2 is printed next to its closed form
tanh(ln 3)^(2n) / cosh(ln 3)^2.
"""

import json
import math
import time

import numpy as np

from tfsim.circuit import parse_circuit, run_circuit
from tfsim.fgbs import build_distribution
from tfsim.hafnian import hafnian_box

TMSV = {
    "modes": 2,
    "inputs": [{"type": "gaussian", "width": 3.0}, {"type": "gaussian", "width": 1.0 / 3.0}],
    "ops": [{"gate": "fbs", "targets": [0, 1]}],
}


def best_time(B, shape, repeats):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        corner = hafnian_box(B, shape)[-1, -1]
        best = min(best, time.perf_counter() - start)
    return best, corner


def main():
    dist = build_distribution(run_circuit(parse_circuit(json.dumps(TMSV))))
    r = math.log(3.0)
    rows = []
    for n in range(31):
        seconds, corner = best_time(dist.a_matrix[:2, :2], [n + 1] * 2, repeats=3)
        exact = math.tanh(r) ** (2 * n) / math.cosh(r) ** 2
        rows.append((n, seconds, dist.prefactor * abs(corner) ** 2, exact))
    with open("hafnian_bench.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,wall_time_s\n")
        fh.writelines(f"{n},{seconds:.17g}\n" for n, seconds, _, _ in rows)

    print(f"{'n':>4} {'seconds':>12} {'ratio':>8} {'P(n, n)':>14} {'closed form':>14}")
    previous = None
    for n, seconds, p, exact in rows:
        ratio = "" if previous is None else f"{seconds / previous:>8.2f}"
        print(f"{n:>4} {seconds:>12.6f} {ratio:>8} {p:>14.6e} {exact:>14.6e}")
        previous = seconds
    print("wrote hafnian_bench.csv")


if __name__ == "__main__":
    main()
