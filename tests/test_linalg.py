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


def _reference_digits(idx, moduli):
    """Little-endian mixed-radix digits of idx, one Python division each."""
    out = []
    for m in moduli:
        idx, r = divmod(idx, m)
        out.append(r)
    return out


@st.composite
def mixed_radix_cases(draw):
    moduli = draw(st.lists(st.integers(1, 9), max_size=6))
    n = int(np.prod(moduli, dtype=np.int64))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
    shifts = draw(st.lists(st.integers(-3, 3), min_size=len(moduli), max_size=len(moduli)))
    return moduli, idx, shifts


@settings(max_examples=200)
@given(mixed_radix_cases())
def test_codec_matches_python_reference_on_mixed_moduli(case):
    moduli, idx, shifts = case
    d = len(moduli)
    ref = np.array([_reference_digits(i, moduli) for i in idx], dtype=np.int64).reshape(len(idx), d)
    digits = linalg.decode_indices(idx, d, moduli)
    assert digits.shape == (len(idx), d) and digits.tolist() == ref.tolist()
    assert linalg.encode_vectors(digits, moduli).tolist() == idx
    # index order: all_vectors lists the reference digits of 0, 1, 2, ...
    every = linalg.all_vectors(d, moduli)
    assert every.tolist() == [_reference_digits(i, moduli) for i in range(len(every))]
    assert linalg.encode_vectors(every, moduli).tolist() == list(range(len(every)))
    # a digit is read mod its modulus, so negative and oversized digits are welcome
    assert linalg.encode_vectors(ref + np.array(shifts) * moduli, moduli).tolist() == idx
    # one modulus is that modulus for every digit
    if d and len(set(moduli)) == 1:
        assert linalg.decode_indices(idx, d, moduli[0]).tolist() == ref.tolist()
        assert linalg.encode_vectors(ref, moduli[0]).tolist() == idx


def test_codec_shapes_and_moduli_count():
    # a scalar index has one row of digits; the trailing axis holds them
    assert linalg.decode_indices(17, 3, [2, 3, 5]).tolist() == [1, 2, 2]
    assert linalg.decode_indices([[5], [7]], 2, 3).shape == (2, 1, 2)
    with pytest.raises(ValueError, match="2 moduli for 3 digits"):
        linalg.decode_indices([1], 3, [2, 3])
    with pytest.raises(ValueError, match="2 moduli for 3 digits"):
        linalg.encode_vectors([[1, 2, 3]], [5, 5])
