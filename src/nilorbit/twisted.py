"""Twisted-trace bases for phi-class functions.

For each phi-fixed irreducible rho an intertwiner phi_rho with
rho(phi(g)) = phi_rho^-1 rho(g) phi_rho is found by Schur averaging over a
seeded random matrix and normalized so its first nonzero entry is 1; the
functions g -> tr(phi_rho rho(g)) are then constant on phi-conjugacy
classes and form a basis of the space of phi-class functions.
"""

import numpy as np

from .cyclo import ZERO, Cyclotomic, contract, from_ints, lincomb, to_ints
from .groups import twisted_classes

# The seeds SCHUR_SEED, SCHUR_SEED + 1, ... of the random matrix averaged
# by schur_intertwiner, _SCHUR_SEEDS of them before a vanishing Schur
# average is an error.
SCHUR_SEED = 1
_SCHUR_SEEDS = 8


def _dense_matrix(rep, g_vec):
    perm, exps = rep.matrix(g_vec)
    n = rep.dim
    M = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        M[int(perm[i])][i] = Cyclotomic.zeta(rep.ring.p, int(exps[i]))
    return M


def _nested(values, n):
    return [values[i * n:(i + 1) * n] for i in range(n)]


def _mat_mul(A, B):
    """A @ B for n x n matrices of Cyclotomic values (nested lists)."""
    n = len(A)
    C, M, den = to_ints([v for row in A + B for v in row])
    X = C.reshape(2, n, n, -1)
    return _nested(from_ints(contract(X[0], X[1], M), M, den * den), n)


def _twisted_traces(T, rep, gs):
    """tr(T rho(g)) for every g in gs."""
    n = rep.dim
    mats = [T] + [_dense_matrix(rep, g) for g in gs]
    C, M, den = to_ints([v for A in mats for row in A for v in row])
    C = C.reshape(len(mats), n, n, -1)
    diag = contract(C[0], C[1:], M)[:, np.arange(n), np.arange(n)]  # [g, i]
    return from_ints(lincomb(np.ones(n, dtype=np.int64), diag.swapaxes(0, 1)), M, den * den)


def schur_intertwiner(ring, rep, phi):
    """phi_rho = sum_g rho(phi(g)) M rho(g)^-1, normalized.

    phi: map on ring vectors (callable).  Retries with fresh seeds if the
    average vanishes (possible for unlucky M).
    """
    n = rep.dim
    p = ring.p
    for attempt in range(_SCHUR_SEEDS):
        rng = np.random.default_rng(SCHUR_SEED + attempt)
        M = [
            [Cyclotomic.rational(int(v)) for v in row]
            for row in rng.integers(0, p, (n, n))
        ]
        gs = [ring.element_from_index(idx) for idx in range(ring.order)]
        mats = [_dense_matrix(rep, phi(g)) for g in gs] + [M]
        mats += [_dense_matrix(rep, ring.group_inv(g)) for g in gs]
        C, order, den = to_ints([v for A in mats for row in A for v in row])
        C = C.reshape(len(mats), n, n, -1)
        N = len(gs)
        terms = contract(contract(C[:N], C[N], order), C[N + 1:], order)
        total = lincomb(np.ones(N, dtype=np.int64), terms.reshape(N, -1))
        acc = _nested(from_ints(total, order, den**3), n)
        # normalize: first nonzero entry in row-major order becomes 1
        piv = None
        for i in range(n):
            for j in range(n):
                if not acc[i][j].is_zero():
                    piv = acc[i][j]
                    break
            if piv is not None:
                break
        if piv is None:
            continue
        inv = piv.inv()
        return [[acc[i][j] * inv for j in range(n)] for i in range(n)]
    raise ArithmeticError("Schur average vanished for all seeds")


def verify_intertwiner(ring, rep, phi, T):
    """rho(phi(g)) T = T rho(g) on ring basis generators."""
    for i in range(ring.dim):
        g = ring.basis_vector(i)
        lhs = _mat_mul(_dense_matrix(rep, phi(g)), T)
        rhs = _mat_mul(T, _dense_matrix(rep, g))
        if any(lhs[a][b] != rhs[a][b] for a in range(rep.dim) for b in range(rep.dim)):
            return False
    return True


def twisted_trace_basis(ring, G, phi_matrix, table, orbit_reps):
    """The full twisted-conjugacy analysis for a Lazard group.

    phi_matrix: automorphism of the ring as a matrix (e.g. Frobenius).
    orbit_reps: list of (row_index, MonomialRep) for the phi-fixed rows.
    Returns the report of groups.twisted_classes extended with the basis
    values and rank/constancy verdicts.
    """
    from . import linalg as la

    p = ring.p
    perm = la.encode_vectors(
        (ring.all_elements() @ np.asarray(phi_matrix, dtype=np.int64).T) % p, p
    )
    report = twisted_classes(G, perm, table=table)

    def phi(v):
        return (np.asarray(phi_matrix, dtype=np.int64) @ v) % p

    labels = report["labels"]
    basis_rows = []
    for row_idx, rep in orbit_reps:
        T = schur_intertwiner(ring, rep, phi)
        if not verify_intertwiner(ring, rep, phi, T):
            raise AssertionError("Schur average is not an intertwiner (bug)")
        full = _twisted_traces(T, rep, [ring.element_from_index(i) for i in range(ring.order)])
        for idx in range(ring.order):
            rep_idx = int(report["reps"][labels[idx]])
            if full[idx] != full[rep_idx]:
                raise AssertionError("twisted trace is not phi-class constant")
        basis_rows.append([full[int(r)] for r in report["reps"]])
    report["basis"] = basis_rows
    report["basis_rank"] = _cyclo_rank(basis_rows)
    report["basis_is_basis"] = report["basis_rank"] == report["num_classes"] == len(
        basis_rows
    )
    return report


def _cyclo_rank(rows):
    """Rank of a matrix of Cyclotomic values by exact elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    used = [False] * len(mat)
    for c in range(ncols):
        piv = None
        for r in range(len(mat)):
            if not used[r] and not mat[r][c].is_zero():
                piv = r
                break
        if piv is None:
            continue
        used[piv] = True
        rank += 1
        inv = mat[piv][c].inv()
        prow = [v * inv for v in mat[piv]]
        mat[piv] = prow
        for r in range(len(mat)):
            if r != piv and not mat[r][c].is_zero():
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], prow)]
    return rank
