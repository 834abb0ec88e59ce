"""Every numerical threshold of schemewalk, named once, with its scale and its reason.

The paper's results are exact, but each is checked in floating point (eps = 2.2e-16).
Size caps, the Lanczos stop n eps k and the JSON writer's format bounds are not
tolerances and stay with their code.
"""

import numpy as np

# Atoms this close are one atom (absolute): Jacobi atoms err ~1e-13, cycles under the cap gap 2e-6.
ATOM_SEPARATION = 1e-9
# Absolute distance of a multiplicity or structure constant from an integer; float error ~1e-12.
INTEGRALITY_TOL = 1e-6
# Per unit of sqrt(n m) ||J|| / gap: the eigenvector perturbation bound on m = n U[0,l]^2, in eps.
MULTIPLICITY_ROUNDING = 12 * np.finfo(float).eps
# Absolute |sum of weights - 1|: d+1 squared entries of a unit vector, ~(d+1) eps at most 5e-13.
WEIGHT_SUM_TOL = 1e-12
# Tail mass a truncated countable measure drops: below the 12 digits every table prints.
DEFAULT_TAIL_TOL = 1e-12
# Times n for PQ - nI and the other eigenmatrix identities, whose entries reach n; alone for 1s.
MATRIX_TOL = 1e-9
# Absolute defect of the character orthogonality relations, whose entries reach the group order.
ORTHOGONALITY_TOL = 1e-9
# Absolute |row norm - 1| and t = 0 row defect: d+1 unit-size terms per amplitude, ~(d+1) eps.
UNITARITY_TOL = 1e-9
# A time this close to 0 is t = 0, where the row is the origin: every grid starts at exact 0.0.
ZERO_TIME_TOL = 1e-15

# verify rows, one each (the duality row reads MATRIX_TOL * n).
# Max |atom or weight - the paper's closed form|, absolute: worst measured 1.5e-13 (C_3404).
CLOSED_FORM_TOL = 1e-10
# Max |W^T W - I| of the oracle's Ritz vectors, <= 1.6e-13 on scheme graphs; a Lanczos
# run that misses it is rebuilt with a Gram-Schmidt pass at every step.
ORACLE_ORTHONORMALITY_TOL = 1e-10
# Max |A W - W Theta|: scales with the degree k and holds the Lanczos stop n eps k.
ORACLE_EIGEN_RESIDUAL_TOL = 1e-8
# The row reads 0 when BFS reproduces the array and 1 when not: 0.5 makes it an exact test.
BFS_ARRAY_MATCH_TOL = 0.5
# Max |oracle - engine amplitude|: the oracle's phases lose digits as t ||A|| grows to t1 k.
ORACLE_AGREEMENT_TOL = 1e-8
# Max spread of the oracle's vertex amplitudes in one stratum, which the paper makes equal.
STRATUM_UNIFORMITY_TOL = 1e-9
# Max defect of the ladder actions: exact neighbour counts against the float Jacobi matrix.
LADDER_ACTIONS_TOL = 1e-10
