"""Shared numerical thresholds.

Every number that decides "is this still a state", "is this outcome
impossible", "what is the rank" or "has this converged" is fixed here, so
the whole pipeline agrees on them.  None is a public setting; only the
solver's certification threshold can be overridden per call, through
``solve_maxlike(kkt_tol=...)``.
"""

# Eigenvalues of states and effects may dip to -PSD_TOL before the object
# is rejected: well above accumulated roundoff of long Kraus products but
# far below any physical population.
PSD_TOL = 1e-10
# Admissible deviation of a state or effect trace from one.
TRACE_TOL = 1e-10
# Admissible deviation of a Kraus step from trace preservation, summed
# over outcomes.
KRAUS_TRACE_TOL = 1e-9
# A step probability at or below this value counts as an impossible outcome.
PROB_FLOOR = 1e-300
# Optimality residual per record; the solver certifies at KKT_TOL * n_records.
KKT_TOL = 1e-7
# Eigenvalues below RANK_REL * max_eigenvalue count as zero when ranking a
# reconstructed state.
RANK_REL = 1e-8
# Singular values below SINGULAR_REL * largest are treated as exact zeros
# in pseudo-inverses, separating flat likelihood directions from roundoff.
SINGULAR_REL = 1e-10
