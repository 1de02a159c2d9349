"""Wall-time scaling of the hafnian recursion.

Times the memoized perfect-matching recursion on random symmetric complex
matrices of growing even dimension (best of three runs each) and writes the
results to CSV. The cost grows geometrically (roughly 3x per added mode pair
in practice), consistent with the exponential subset recursion.
"""

import time

import numpy as np

from tfsim.hafnian import hafnian


def best_time(B, repeats):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        hafnian(B)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    sizes = (2, 4, 6, 8, 10, 12, 14, 16, 18)
    rng = np.random.default_rng(1)
    rows = []
    for n in sizes:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rows.append((n, best_time((M + M.T) / 2.0, repeats=3)))
    with open("hafnian_bench.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,wall_time_s\n")
        fh.writelines(f"{n},{seconds:.17g}\n" for n, seconds in rows)

    print(f"{'n':>4} {'seconds':>12} {'ratio':>8}")
    previous = None
    for n, seconds in rows:
        ratio = "" if previous is None else f"{seconds / previous:>8.2f}"
        print(f"{n:>4} {seconds:>12.6f} {ratio:>8}")
        previous = seconds
    print("wrote hafnian_bench.csv")


if __name__ == "__main__":
    main()
