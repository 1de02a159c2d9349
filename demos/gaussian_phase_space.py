"""Chronocyclic phase-space portraits of gated single-photon states.

Builds a bandwidth-scaled, rotated, and displaced photon with symplectic
gates, verifies the structural invariants, and writes the Wigner function to
CSV (and to PNG when matplotlib is available).
"""

from pathlib import Path

import numpy as np

from tfsim import gaussian as g


def main():
    state = g.vacuum_state(1)
    for gate, params in (
        ("scale", {"s": 1.8}),
        ("frft", {"phi": np.pi / 6.0}),
        ("displace", {"omega0": 1.0, "t0": -0.5}),
    ):
        state = g.apply(state, gate, (0,), **params)
        label = f"{gate}({', '.join(f'{k}={v:g}' for k, v in params.items())})"
        print(f"applied {label:28s} purity defect {g.purity_defect(state):.2e}")

    print(f"mean  = {np.round(state.mean, 6)}")
    print("cov   =")
    print(np.round(state.cov, 6))
    sigma_c = g.to_complex_covariance(state)
    print(f"complex covariance diagonal: {np.round(np.diag(sigma_c).real, 6)}")
    print(f"Husimi at the mean point: {g.husimi_eval(state, (1.0 - 0.5j) / np.sqrt(2)):.6f}")

    grid = g.PhaseSpaceGrid(-5, 7, 161, -6, 6, 161)
    field = g.wigner_eval(state, grid)
    csv = g.wigner_csv_text(state, grid)
    Path("wigner_demo.csv").write_text(csv, encoding="utf-8", newline="\n")
    total = np.trapezoid(np.trapezoid(field, grid.t_axis, axis=1), grid.omega_axis)
    print(f"wrote wigner_demo.csv; grid integral = {total:.8f} (exact: 1)")
    print(f"peak value {field.max():.6f} (pure-state ceiling 1/pi = {1 / np.pi:.6f})")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping wigner_demo.png")
        return
    fig, ax = plt.subplots(figsize=(5, 4))
    mesh = ax.pcolormesh(grid.omega_axis, grid.t_axis, field.T, shading="auto")
    ax.set_xlabel("detuning")
    ax.set_ylabel("arrival-time offset")
    ax.set_title("Wigner function")
    fig.colorbar(mesh, ax=ax)
    fig.tight_layout()
    fig.savefig("wigner_demo.png", dpi=150)
    print("wrote wigner_demo.png")


if __name__ == "__main__":
    main()
