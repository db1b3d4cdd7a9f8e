"""Compress a measurement trajectory into a single effect.

A record of sequential outcomes enters the likelihood only through one
positive operator E and one scale: P(record | rho) = exp(log_c) tr(rho E).
This script builds a small dispersive-readout family, simulates a few
records, and verifies the compressed form against step-by-step filtering
for several candidate initial states.
"""
import numpy as np

from trajtomo import (
    backward_sweep,
    build_qnd_family,
    forward_run,
    mean_photon,
    sample_records,
    thermal_state,
)

# A three-photon cavity probed for 40 steps.  Each step relaxes the cavity
# toward a thermal background and then reads one bit off a probe qubit.
family = build_qnd_family(40, n_max=3, n_bath=0.1)
print(f"family: dim {family.dim}, {family.n_steps} steps")

rho0 = thermal_state(family.dim, 0.8)
records = sample_records(family, rho0, 3, rng_seed=7)
print(f"simulated {len(records)} records from a thermal state with "
      f"<n> = {mean_photon(rho0):.2f}")

for k, rec in enumerate(records):
    print()
    print(f"record {k}: outcomes {''.join(o[0] for o in rec.outcomes[:20])}... ")

    # Backward pass: one sweep, independent of any initial state.
    adj = backward_sweep(family, rec, (0,))[0]
    evals = np.linalg.eigvalsh(adj.effect.matrix)
    print(f"  compressed effect spectrum: {np.round(evals, 4)}, "
          f"log_c = {adj.log_c:+.4f}")

    # Forward pass: filter the record from each candidate and compare the
    # accumulated log probability with the compressed form.
    for n_bar in (0.2, 0.8, 2.0):
        cand = thermal_state(family.dim, n_bar)
        direct = forward_run(family, rec, cand).log_prob
        compressed = adj.log_c + np.log(
            np.einsum("ij,ji->", cand.matrix, adj.effect.matrix).real
        )
        print(f"  candidate <n> = {n_bar:.1f}: log P = {direct:+.6f}, "
              f"compressed {compressed:+.6f}, gap {abs(direct - compressed):.2e}")

print()
print("The gap is numerical noise: filtering forward and compressing")
print("backward describe the same probability, so tomography can work on")
print("one effect per record instead of the full outcome sequence.")
