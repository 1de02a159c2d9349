"""Gaussian boson sampling over spectral-mode patterns.

Prepares a two-mode squeezed pair with bandwidth scalings and the frequency
mixer, tabulates exact pattern probabilities, draws seeded samples, and
compares empirical frequencies with the exact values.
"""

from collections import Counter
from pathlib import Path

from tfsim import fgbs
from tfsim import gaussian as g


def main():
    state = g.vacuum_state(2)
    state = g.apply(state, "scale", (0,), s=1.5)
    state = g.apply(state, "scale", (1,), s=1.0 / 1.5)
    state = g.apply(state, "fbs", (0, 1))
    dist = fgbs.build_distribution(state)
    print(f"prefactor {dist.prefactor:.6f}")

    cutoff = 6
    mass = fgbs.total_probability(dist, cutoff)
    print(f"mass below cutoff {cutoff}: {mass:.8f}")

    shots = 20000
    samples = fgbs.sample(dist, shots=shots, rng_seed=11, cutoff=cutoff)
    counts = Counter(samples)

    print(f"{'pattern':>8} {'exact':>12} {'empirical':>12}")
    for n in range(5):
        pattern = (n, n)
        exact = fgbs.probability(dist, pattern)
        empirical = counts.get(pattern, 0) / shots
        print(f"{str(pattern):>8} {exact:>12.6f} {empirical:>12.6f}")
    off_diagonal = sum(v for k, v in counts.items() if k[0] != k[1])
    print(f"draws off the correlated diagonal: {off_diagonal} (exactly correlated pair)")

    table = fgbs.probability_table_csv(dist, cutoff=4)
    Path("pattern_table.csv").write_text(table, encoding="utf-8", newline="\n")
    print("wrote pattern_table.csv")
    text = fgbs.samples_to_jsonl(samples[:5])
    print("first shots as JSON lines:")
    print(text, end="")


if __name__ == "__main__":
    main()
