"""Tomography of a decaying qubit from heterodyne fluorescence signals.

Simulates diffusive two-quadrature records from a qubit prepared along +x,
reconstructs the state at a grid of start times, and prints the sweep next
to the unconditional (signal-averaged) evolution of the same model.  A
smaller cousin of the full 40 000-record run in the acceptance suite.
"""
import numpy as np

from trajtomo import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    backward_sweep_batch,
    build_fluorescence_model,
    build_r_matrix,
    from_bloch,
    lindblad_evolve,
    quadrature_estimates,
    sample_records,
    solve_maxlike,
)

N_RECORDS = 5_000

model = build_fluorescence_model()
print(f"model: T1 window of {model.n_steps} steps x {model.dt * 1e9:.0f} ns, "
      f"{len(model.channels)} decay channels")

plus = from_bloch((1.0, 0.0, 0.0))
records = sample_records(model, plus, N_RECORDS, rng_seed=2026)

# The rescaled signal average estimates (x, y) without any model, but it
# averages over the whole window, so the decay drags x well below x(0).
raw_xy = quadrature_estimates(records, t1=4.15e-6, efficiency=0.24, dt=model.dt)
print(f"raw signal average over the window: x ~ {raw_xy[0]:+.3f}, "
      f"y ~ {raw_xy[1]:+.3f} (x starts at +1 and decays)")

# One backward pass serves every start time: the effect for start s
# summarizes the record from step s to the end.
starts = list(range(0, 26, 5))
effects = backward_sweep_batch(model, records, start_indices=starts)

reference = lindblad_evolve(model, plus, n_steps=max(starts))

print()
print("t [us]   x_ml (2s)        y_ml (2s)        z_ml (2s)        x_ref   z_ref")
for s in starts:
    result = solve_maxlike(effects[s])
    assert result.certified
    r = build_r_matrix(result.rho, effects[s])
    ivs = [r.interval(op) for op in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    ref = reference[s]
    cells = "  ".join(
        f"{iv.mean:+.3f} ({iv.half_width_95:.3f})" for iv in ivs
    )
    x_ref = np.einsum("ij,ji->", SIGMA_X, ref).real
    z_ref = np.einsum("ij,ji->", SIGMA_Z, ref).real
    print(f"{s * model.dt * 1e6:5.1f}   {cells}  {x_ref:+.3f}  {z_ref:+.3f}")

print()
print("x decays toward 0 and z relaxes toward -1 as the later start times")
print("leave less record to constrain the state, so the 2 sigma widths grow.")
