"""Twisted-trace bases for phi-class functions.

For each phi-fixed irreducible rho, a MonomialRep, an intertwiner phi_rho
with rho(phi(g)) = phi_rho^-1 rho(g) phi_rho is found by Schur averaging
over a seeded random matrix and normalized so its first nonzero entry is
1; the functions g -> tr(phi_rho rho(g)) are then constant on
phi-conjugacy classes and form a basis of the space of phi-class
functions.  Everything runs on root counts: a value at the prime p is p
integer counts, one per power of zeta_p, and two values are equal
exactly when their counts differ by a constant.  The Schur average is a
weighted bincount over (row, column, exponent), one column of rho(phi(g))
at a time, and the intertwiner check and the traces are gathers of it
with exponent shifts.  Schur orthogonality makes the traces independent:
their Gram matrix, one contraction against the conjugates, is checked to be
diagonal with a nonzero diagonal, so the basis rank is their number.
"""

import numpy as np

from . import linalg
from .cyclo import Cyclotomic, contract, from_ints, gather, product_table, times, to_ints
from .groups import twisted_classes

# The seeds SCHUR_SEED, SCHUR_SEED + 1, ... of the random matrix averaged
# by schur_intertwiner, _SCHUR_SEEDS of them before a vanishing Schur
# average is an error.
SCHUR_SEED = 1
_SCHUR_SEEDS = 8


def _equal(X, Y):
    """Whether the root counts X and Y (last axis p) hold equal values: at a
    prime p the only relation is 1 + zeta_p + ... + zeta_p^(p-1) = 0."""
    D = X - Y
    return (D == D[..., :1]).all(axis=-1)


def _shift(counts, e):
    """The root counts of zeta_p^e times those of counts, with e of one
    axis less, the leading axes broadcast: exponent s moves to s + e."""
    p = counts.shape[-1]
    return np.take_along_axis(counts, (np.arange(p) - e[..., None]) % p, axis=-1)


def schur_intertwiner(rep, phi, inv):
    """(A, scale): the root counts (dim, dim, p) of the Schur average
    A = sum_g rho(phi(g)) M rho(g^-1) and the inverse of its first nonzero
    entry in row-major order, so that phi_rho = scale * A.

    phi and inv map element indices to those of phi(g) and g^-1.  Retries
    with fresh seeds if the average vanishes (possible for unlucky M).
    """
    n, p = rep.dim, rep.ring.p
    P, E = rep.perm[phi], rep.exps[phi]
    Pinv, Einv = rep.perm[inv], rep.exps[inv]
    # rho(phi(g)) has zeta^E[g, j] at (P[g, j], j) and rho(g^-1) has
    # zeta^Einv[g, b] at (Pinv[g, b], b), so every (g, j, b) adds
    # M[j, Pinv[g, b]] zeta^(E[g, j] + Einv[g, b]) to A[P[g, j], b]
    for attempt in range(_SCHUR_SEEDS):
        M = np.random.default_rng(SCHUR_SEED + attempt).integers(0, p, (n, n))
        A = np.zeros(n * n * p)
        for j in range(n):  # one column of rho(phi(g)) at a time
            key = (P[:, j, None] * n + np.arange(n)) * p + (E[:, j, None] + Einv) % p
            A += np.bincount(key.ravel(), M[j, Pinv].ravel(), minlength=n * n * p)
        A = np.rint(A).astype(np.int64).reshape(n, n, p)
        nonzero = np.flatnonzero(~_equal(A, 0))
        if len(nonzero):
            return A, Cyclotomic.from_root_counts(p, A.reshape(-1, p)[nonzero[0]]).inv()
    raise ArithmeticError("Schur average vanished for all seeds")


def _intertwines(rep, phi, A, gens):
    """rho(phi(g)) A = A rho(g) for each element index g in gens.  Row
    P[phi g, j] of the left side is zeta^E[phi g, j] times row j of A, and
    column b of the right side zeta^E[g, b] times column P[g, b] of A."""
    P, E = rep.perm, rep.exps
    gens = np.asarray(gens, dtype=np.int64)
    left = np.empty((len(gens),) + A.shape, dtype=A.dtype)
    left[np.arange(len(gens))[:, None], P[phi[gens]]] = _shift(A[None], E[phi[gens]][:, :, None])
    right = _shift(A[:, P[gens]].swapaxes(0, 1), E[gens][:, None, :])
    return bool(_equal(left, right).all())


def twisted_trace_basis(ring, G, phi_matrix, table, orbit_reps):
    """The full twisted-conjugacy analysis for a Lazard group.

    phi_matrix: automorphism of the ring as a matrix (e.g. Frobenius).
    orbit_reps: list of (row_index, MonomialRep) for the phi-fixed rows.
    Returns the report of groups.twisted_classes extended with the basis
    values and rank/constancy verdicts.
    """
    p = ring.p
    phi = linalg.encode_vectors(
        (ring.all_elements() @ np.asarray(phi_matrix, dtype=np.int64).T) % p, p
    )
    report = twisted_classes(G, phi, table=table)
    reps = report["reps"]
    basis_rows = []
    for _, rep in orbit_reps:
        A, scale = schur_intertwiner(rep, phi, G.inverses())
        if not _intertwines(rep, phi, A, G.generators()):
            raise AssertionError("Schur average is not an intertwiner (bug)")
        # tr(A rho(g)) = sum_i A[i, perm[g, i]] zeta^exps[g, i], for every g
        traces = sum(_shift(A[i, rep.perm[:, i]], rep.exps[:, i]) for i in range(rep.dim))
        if not _equal(traces, traces[reps[report["labels"]]]).all():
            raise AssertionError("twisted trace is not phi-class constant")
        values, M, den = product_table(Cyclotomic.from_root_counts(p, traces[reps]), (scale,))
        basis_rows.append(from_ints(values, M, den))
    report["basis"] = basis_rows
    # the reps are unitary and pairwise inequivalent, so the Gram matrix
    # sum_c |c| x(c) conj(y(c)) over the twisted classes c is diagonal with a
    # nonzero diagonal: its rows, and so the traces, are independent
    C, M, _ = to_ints([v for row in basis_rows for v in row])
    C = C.reshape(len(basis_rows), len(reps), C.shape[-1])
    conj = gather(C, -np.arange(C.shape[-1]), M)
    sizes = np.bincount(report["labels"])
    gram = contract(times(C, sizes[None, :, None]), conj.transpose(1, 0, 2), M)
    if (gram.any(axis=-1) != np.eye(len(basis_rows), dtype=bool)).any():
        raise AssertionError("twisted traces of the fixed reps are not orthogonal")
    report["basis_rank"] = len(basis_rows)
    report["basis_is_basis"] = report["num_classes"] == len(basis_rows)
    return report
