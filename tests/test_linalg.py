import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import linalg

# p = 536870909 reduces the whole matrix every 16 pivots, p = 2^31 - 1
# after every pivot; the small primes never before the end.
PRIMES = [2, 3, 5, 20011, 536870909, 2**31 - 1]


def _reference_rref(mat, p):
    """Row reduction with every entry reduced after every pivot."""
    R = linalg.asmod(mat, p).copy()
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + nz[0]
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * linalg.modinv(R[r, c], p)) % p
        col = R[:, c].copy()
        col[r] = 0
        R -= np.outer(col, R[r])
        R %= p
        pivots.append(c)
        r += 1
    return R[:r], pivots


def _reference_kernel(mat, p):
    A = linalg.asmod(mat, p)
    n = A.shape[1]
    R, pivots = _reference_rref(A, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-R[r, c]) % p
    return _reference_rref(basis, p)[0] if len(free) else basis


@st.composite
def low_rank_matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    n, m = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rank = draw(st.integers(0, max(n, m)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, p, (n, rank)) @ (rng.integers(0, p, (rank, m)) % 1024)
    return X % p - draw(st.integers(0, 1)) * p, p  # entries in [-p, p) or [0, p)


@settings(max_examples=150)
@given(low_rank_matrices())
def test_rref_and_kernel_match_eager_reference(case):
    X, p = case
    R, pivots = linalg.rref(X, p)
    want, want_pivots = _reference_rref(X, p)
    assert pivots == want_pivots
    assert R.shape == want.shape and (R == want).all()
    K, want = linalg.kernel(X, p), _reference_kernel(X, p)
    assert K.shape == want.shape and (K == want).all()


def test_rref_full_rank_large_prime():
    p = 536870909
    X = np.random.default_rng(1).integers(0, p, (40, 60))
    R, pivots = linalg.rref(X, p)
    assert pivots == list(range(40))
    assert (R[:, :40] == np.eye(40, dtype=np.int64)).all()
    assert (R == _reference_rref(X, p)[0]).all()


def test_prime_power():
    for q, want in ((2, (2, 1)), (9, (3, 2)), (32, (2, 5)), (125, (5, 3)), (65537, (65537, 1))):
        assert linalg.prime_power(q) == want
    for q in (-4, 0, 1, 6, 12, 100):
        with pytest.raises(ValueError, match="^%d is not a prime power$" % q):
            linalg.prime_power(q)
