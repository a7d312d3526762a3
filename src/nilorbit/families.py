"""The concrete families: fake Heisenberg groups, algebra groups (UL_n),
generalized unipotent symplectic groups Sp(A, sigma), and USp4 with its
golden character table in characteristic 2.

Rings defined over F_q are built through FqLieScheme, which evaluates the
bracket on points of any extension F_{q^n}: the bracket is a sum of
F_q-bilinear terms twisted by p-power Frobenii, which covers both honest
F_q-Lie algebras (single untwisted term) and the fake Heisenberg bracket
B(x, y) = sum a_ij x^(p^i) y^(p^j) that is not F_q-bilinear at all.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from . import kernels, linalg
from .chartable import CharacterTable
from .cyclo import from_ints, lincomb, to_ints
from .gfq import FqField, fq_embed, register_composite
from .groups import AbelianGroup, FiniteGroup, induce_from_roots, is_homomorphism, little_groups
from .liering import FqStructure, LieRing


# -- F_q Lie ring schemes -----------------------------------------------------


class FqLieScheme:
    """A family n -> g(F_{q^n}) of Lie rings over F_p.

    bracket_terms: {(alpha, beta): {(i, j): {k: a}}} contributing
    a * x_i^(p^alpha) * y_j^(p^beta) to coordinate k of [x, y], with a in
    F_q.  The (0,0)-only case is an honest F_q-Lie algebra.
    """

    def __init__(self, field, dim_q, bracket_terms, name=""):
        self.field = field
        self.dim_q = dim_q
        self.bracket_terms = bracket_terms
        self.name = name
        self._levels = {}

    def level_field(self, n):
        return FqField(self.field.p, self.field.s * n)

    def at_level(self, n):
        """g(F_{q^n}) as an F_p LieRing of dimension n * s * dim_q."""
        if n in self._levels:
            return self._levels[n]
        p = self.field.p
        K = self.level_field(n)
        base_emb = fq_embed(self.field, K)
        sn = K.s
        d = self.dim_q * sn
        F = K.frobenius_matrix()
        frob_pows = {0: np.eye(sn, dtype=np.int64)}

        def frob_power(alpha):
            if alpha not in frob_pows:
                frob_pows[alpha] = (frob_power(alpha - 1) @ F) % p
            return frob_pows[alpha]

        C = np.zeros((d, d, d), dtype=np.int64)
        pair_t = np.repeat(np.arange(sn), sn)
        pair_u = np.tile(np.arange(sn), sn)
        for (alpha, beta), table in self.bracket_terms.items():
            # columns of Fa are b_t^(p^alpha); all sn^2 products vectorized
            Xa = frob_power(alpha).T  # row t = coords of b_t^(p^alpha)
            Yb = frob_power(beta).T
            prod = K.bulk_mul(Xa[pair_t], Yb[pair_u])  # (sn^2, sn)
            for (i, j), row in table.items():
                for k, a in row.items():
                    aK = np.array(base_emb(a), dtype=np.int64)
                    vals = K.bulk_mul(prod, np.tile(aK, (sn * sn, 1)))
                    blk = C[i * sn : (i + 1) * sn, j * sn : (j + 1) * sn, k * sn : (k + 1) * sn]
                    blk += vals.reshape(sn, sn, sn)
        C %= p
        eye_q = np.eye(self.dim_q, dtype=np.int64)
        frob = np.kron(eye_q, K.frobenius_matrix())
        scal = np.kron(eye_q, K.mul_matrix(K.gen()))
        ring = LieRing(
            p,
            C,
            fq=FqStructure(
                field=K,
                dim_q=self.dim_q,
                frobenius_matrix=frob,
                scalar_matrices=(scal,),
            ),
        )
        ring.scheme = self
        ring.level = n
        self._levels[n] = ring
        return ring

    def embedding_matrix(self, m, n):
        """F_p-linear matrix g(F_{q^m}) -> g(F_{q^n}) (coordinate-wise)."""
        if n % m != 0:
            raise ValueError("levels must divide")
        Km = self.level_field(m)
        Kn = self.level_field(n)
        E = fq_embed(Km, Kn).matrix  # (s*n) x (s*m)
        return np.kron(np.eye(self.dim_q, dtype=np.int64), E)

    @property
    def brackets_land_in_unread_coordinates(self):
        """True when no bracket term reads a coordinate that a bracket term
        writes; then [g, g] is bracketed by nothing and every level has
        nilpotence class <= 2."""
        read, written = set(), set()
        for table in self.bracket_terms.values():
            for ij, row in table.items():
                read.update(ij)
                written.update(row)
        return not read & written

    def pin_tower(self, levels):
        """Register composite embeddings along a chain of levels."""
        fields = [self.level_field(n) for n in levels]
        for a, b, c in zip(fields, fields[1:], fields[2:]):
            register_composite(a, b, c)


def fake_heisenberg_scheme(p, s, coeffs=None):
    """The fake Heisenberg Lie ring scheme over F_q, q = p^s.

    Coordinates (x, z) with [(x, z), (y, w)] = (0, B(x, y)),
    B(x, y) = sum a_ij x^(p^i) y^(p^j), default B(x, y) = x^p y - x y^p.
    coeffs: {(i, j): a_ij in F_q} with a_ij = -a_ji (and a_ii = 0).
    """
    if p == 2:
        raise ValueError("fake Heisenberg groups need p > 2")
    F = FqField(p, s)
    if coeffs is None:
        coeffs = {(1, 0): F.one, (0, 1): F.neg(F.one)}
    terms = {}
    for (i, j), a in coeffs.items():
        a = F.element(a) if isinstance(a, (int, tuple)) else a
        if (j, i) in coeffs:
            aj = coeffs[(j, i)]
            aj = F.element(aj) if isinstance(aj, (int, tuple)) else aj
            if F.add(a, aj) != F.zero and i != j:
                raise ValueError("coefficients must be antisymmetric")
        if i == j and a != F.zero:
            raise ValueError("diagonal coefficients must vanish")
        if a != F.zero:
            terms.setdefault((i, j), {})[(0, 0)] = {1: a}
    return FqLieScheme(F, 2, terms, name="fakeheis(p=%d,s=%d)" % (p, s))


def fake_heisenberg(p, s, coeffs=None):
    """g(F_q) itself: an F_p Lie ring of dimension 2s, class <= 2."""
    return fake_heisenberg_scheme(p, s, coeffs).at_level(1)


def ul_lie_scheme(n, p, s=1):
    """The Lie algebra of strictly upper triangular n x n matrices over F_q
    as an honest (untwisted) FqLieScheme."""
    F = FqField(p, s)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = {pr: t for t, pr in enumerate(pairs)}
    table = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            row = {}
            if j == k:
                row[idx[(i, l)]] = F.one
            if l == i:
                tgt = idx[(k, j)]
                row[tgt] = F.add(row.get(tgt, F.zero), F.neg(F.one))
            row = {k2: v for k2, v in row.items() if v != F.zero}
            if row:
                table[(a, b)] = row
    return FqLieScheme(F, len(pairs), {(0, 0): table}, name="ul%d(q=%d^%d)" % (n, p, s))


def abelian_scheme(p, s, dim_q):
    """G_a^dim_q over F_q as a (trivial-bracket) scheme."""
    return FqLieScheme(FqField(p, s), dim_q, {}, name="Ga^%d" % dim_q)


# -- associative algebras and algebra groups ------------------------------------


class AssocAlgebra:
    """Nilpotent associative algebra over F_p by structure constants."""

    def __init__(self, p, constants):
        constants = np.asarray(constants, dtype=np.int64) % p
        self.p = p
        self.dim = constants.shape[0]
        self.constants = constants
        self._validate()

    def _validate(self):
        d = self.dim
        A = self.constants
        E = np.eye(d, dtype=np.int64)
        # associativity one i-slice at a time: (e_i e_j) e_k = e_i (e_j e_k)
        for i in range(d):
            lhs = self.product(A[i][:, None], E)
            rhs = (A @ A[i]) % self.p  # A[i] is the matrix of v -> e_i v
            bad = np.argwhere((lhs != rhs).any(axis=2))
            if len(bad):
                j, k = bad[0]
                raise ValueError("product is not associative at (%d,%d,%d)" % (i, j, k))
        # nilpotency: powers of the whole algebra must vanish
        self.nil_index = 1
        cur = E
        while cur.shape[0]:
            rows = self.product(cur[:, None], E).reshape(-1, d)
            rows = rows[rows.any(axis=1)]
            if not len(rows):
                break
            cur, _ = linalg.rref(rows, self.p)
            self.nil_index += 1
            if self.nil_index > d + 1:
                raise ValueError("algebra is not nilpotent")

    @property
    def order(self):
        return self.p**self.dim

    def product(self, x, y):
        """xy for vectors or batches of rows broadcasting against each other
        over their leading axes."""
        return linalg.bilinear(self.constants, x, y, self.p)

    def lie_ring(self):
        """The associated Lie ring [a, b] = ab - ba."""
        C = (self.constants - np.swapaxes(self.constants, 0, 1)) % self.p
        return LieRing(self.p, C)

    def group_inv_vec(self, x):
        """Inverse in 1+A via the alternating geometric series
        -x + x^2 - x^3 + ..."""
        x = np.asarray(x, dtype=np.int64) % self.p
        acc = np.zeros_like(x)
        power = x.copy()
        sign = -1
        while power.any():
            acc = (acc + sign * power) % self.p
            power = self.product(power, x)
            sign = -sign
        return acc


def strict_upper_algebra(n, p, s=1):
    """Strictly upper triangular n x n matrices over F_{p^s}, restricted to
    an F_p-algebra of dimension s * n(n-1)/2."""
    F = FqField(p, s)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    d = len(pairs) * s
    basis = []
    for (i, j) in pairs:
        for t in range(s):
            basis.append((i, j, t))
    index = {b: t for t, b in enumerate(basis)}
    C = np.zeros((d, d, d), dtype=np.int64)
    kbasis = [tuple(1 if r == t else 0 for r in range(s)) for t in range(s)]
    for a, (i, j, t) in enumerate(basis):
        for b, (k, l, u) in enumerate(basis):
            if j != k:
                continue
            val = F.mul(kbasis[t], kbasis[u])
            for r in range(s):
                if val[r]:
                    C[a, b, index[(i, l, r)]] = val[r]
    alg = AssocAlgebra(p, C)
    alg.field = F
    alg.pairs = pairs
    return alg


def algebra_group(A, spot_check=True):
    """The group 1 + A with x o y = x + y + xy, as a FiniteGroup."""
    p, d = A.p, A.dim

    def mult(I, J):
        X = linalg.decode_indices(I, d, p)
        Y = linalg.decode_indices(J, d, p)
        return linalg.encode_vectors(X + Y + A.product(X, Y), p)

    def inv(I):
        return linalg.encode_vectors(A.group_inv_vec(linalg.decode_indices(I, d, p)), p)

    gens = linalg.encode_vectors(np.eye(d, dtype=np.int64), p).tolist()
    G = FiniteGroup(A.order, mult, inv_bulk=inv, identity=0, gens=gens, name="1+A")
    G.algebra = A
    if spot_check:
        G.spot_check_axioms()
    return G


def ul_group(n, q):
    """UL_n(F_q) as an algebra group (q = p^s)."""
    p, s = linalg.prime_power(q)
    return algebra_group(strict_upper_algebra(n, p, s))


# -- generalized unipotent symplectic groups -------------------------------------

_SCAN_BLOCK = 1 << 10


def sp_a_sigma(A, sigma):
    """Sp(A, sigma) = {x in 1+A : x + sigma(x) + x sigma(x) = 0}.

    sigma: d x d matrix over Z/p of an anti-involution of A (verified).
    For odd p the order is checked against |A_-| via the explicit square
    root bijection x_+ = -1 + (1 + x_-^2)^(1/2).
    """
    p, d = A.p, A.dim
    if A.order > kernels.DENSE_BUDGET:
        raise ValueError("Sp(A, sigma) scan over %d^%d points exceeds the dense budget" % (p, d))
    S = np.asarray(sigma, dtype=np.int64) % p
    if S.shape != (d, d):
        raise ValueError("sigma must be a %d x %d matrix" % (d, d))
    # sigma axioms
    if (linalg.matmul(S, S, p) != np.eye(d, dtype=np.int64)).any():
        raise ValueError("sigma^2 != 1")
    # sigma(e_i e_j) = sigma(e_j) sigma(e_i); row t of S.T is sigma(e_t)
    if ((A.constants @ S.T) % p != A.product(S.T, S.T[:, None])).any():
        raise ValueError("sigma is not an anti-homomorphism")
    # 1 + x is a member iff x + sigma(x) + x sigma(x) = 0; the scan runs in
    # blocks of indices to bound the (rows, d, d) stage of the product
    members = []
    for start in range(0, A.order, _SCAN_BLOCK):
        X = linalg.decode_indices(np.arange(start, min(start + _SCAN_BLOCK, A.order)), d, p)
        SX = (X @ S.T) % p
        hits = ~((X + SX + A.product(X, SX)) % p).any(axis=1)
        members.extend((start + np.flatnonzero(hits)).tolist())
    members = np.array(members, dtype=np.int64)
    if p > 2:
        minus_dim = linalg.kernel((S + np.eye(d, dtype=np.int64)) % p, p).shape[0]
        if len(members) != p**minus_dim:
            raise AssertionError("|Sp(A,sigma)| != |A_-|")
        _check_sqrt_bijection(A, S, members)
    # 1 + A may exceed the whole-group budget that the spot check needs
    G = algebra_group(A, spot_check=False).subgroup(members)
    G.name = "Sp(A,sigma)"
    G.algebra = A
    return G


def _binomial_half(j):
    """The rational binomial coefficient C(1/2, j)."""
    num = Fraction(1)
    half = Fraction(1, 2)
    for t in range(j):
        num *= half - t
    return num / math.factorial(j)


def _check_sqrt_bijection(A, S, members):
    """1 + x  <->  x_-, recovering x_+ = -1 + (1 + x_-^2)^(1/2), for every
    member at once."""
    p, d = A.p, A.dim
    inv2 = pow(2, -1, p)
    X = linalg.decode_indices(members, d, p)
    SX = (X @ S.T) % p
    x_minus = ((X - SX) * inv2) % p
    keys = np.sort(linalg.encode_vectors(x_minus, p))  # np.unique would import numpy.ma
    if (keys[1:] == keys[:-1]).any():
        raise AssertionError("x -> x_- is not injective on Sp(A, sigma)")
    # x_+ via the truncated Newton series on x_-^2
    sq = A.product(x_minus, x_minus)
    acc = np.zeros_like(X)
    term = sq
    j = 1
    while term.any():
        acc = (acc + linalg.rational_mod(_binomial_half(j), p) * term) % p
        term = A.product(term, sq)
        j += 1
    if (acc != ((X + SX) * inv2) % p).any():
        raise AssertionError("square-root recovery of x_+ failed")


def usp4_flag_algebra(q):
    """The strictly-upper flag algebra of Sp_4 with the antidiagonal form,
    and the anti-involution sigma(M) = W^-1 M^t W for W = JS."""
    p, s = linalg.prime_power(q)
    A = strict_upper_algebra(4, p, s)
    W = np.zeros((4, 4), dtype=np.int64)
    signs = [-1, 1, -1, 1]
    for i in range(4):
        W[i, 3 - i] = signs[i] % p
    Winv = linalg.inverse(W, p)
    d = A.dim
    S = np.zeros((d, d), dtype=np.int64)
    F = A.field
    basis = [(i, j, t) for (i, j) in A.pairs for t in range(F.s)]
    index = {bb: k for k, bb in enumerate(basis)}
    kbasis = [tuple(1 if r == t else 0 for r in range(F.s)) for t in range(F.s)]
    for b, (i, j, t) in enumerate(basis):
        # sigma(c E_ij) = c * Winv E_ji W  (field scalars commute)
        T = np.zeros((4, 4), dtype=np.int64)
        T[j, i] = 1
        out = (Winv @ T @ W) % p
        for k in range(4):
            for l in range(4):
                if out[k, l] and k < l:
                    c = F.scalar_mul(out[k, l], kbasis[t])
                    for r in range(F.s):
                        if c[r]:
                            S[index[(k, l, r)], b] = c[r]
                elif out[k, l] and k >= l:
                    raise AssertionError("sigma left the strict upper algebra")
    return A, S


def usp4_via_sp(q):
    """USp4(F_q) as Sp(A, sigma) of the flag algebra."""
    A, S = usp4_flag_algebra(q)
    return sp_a_sigma(A, S)


# -- USp4 as quadruples ------------------------------------------------------------


class USp4:
    """USp4(F_q) on quadruples [a, b, c, d]: the matrix
    [[1,a,b,c],[0,1,d,ad-b],[0,0,1,a],[0,0,0,1]], which in characteristic 2
    is literally the displayed [a,b,c,d] form."""

    def __init__(self, q):
        p, s = linalg.prime_power(q)
        self.q = q
        self.field = FqField(p, s)
        self.n = q**4

    def index(self, quad):
        """The base-q index of the field indices of a, b, c, d (a first)."""
        return int(linalg.encode_vectors(np.ravel(quad), self.field.p))

    def from_index(self, idx):
        F = self.field
        coeffs = linalg.decode_indices(idx, 4 * F.s, F.p).tolist()
        return tuple(tuple(coeffs[k * F.s : (k + 1) * F.s]) for k in range(4))

    def matrix(self, quad):
        F = self.field
        a, b, c, d = quad
        e = F.sub(F.mul(a, d), b)
        rows = [
            [F.one, a, b, c],
            [F.zero, F.one, d, e],
            [F.zero, F.zero, F.one, a],
            [F.zero, F.zero, F.zero, F.one],
        ]
        return rows

    def mult_quads(self, x, y):
        F = self.field
        a, b, c, d = x
        a2, b2, c2, d2 = y
        a3 = F.add(a, a2)
        b3 = F.add(F.add(b, b2), F.mul(a, d2))
        inner = F.sub(F.mul(a2, d2), b2)
        c3 = F.add(F.add(c, c2), F.add(F.mul(a, inner), F.mul(b, a2)))
        d3 = F.add(d, d2)
        return (a3, b3, c3, d3)

    def mult_indices(self, I, J):
        """mult_quads on index arrays, through the field's index tables."""
        add, sub, mul = self.field.index_tables()
        # .T gives contiguous per-digit arrays, which the tables gather from
        # faster, and on the stacked digits .T undoes itself
        a, b, c, d = linalg.decode_indices(I, 4, self.q).T
        a2, b2, c2, d2 = linalg.decode_indices(J, 4, self.q).T
        a3 = add[a, a2]
        b3 = add[add[b, b2], mul[a, d2]]
        inner = sub[mul[a2, d2], b2]
        c3 = add[add[c, c2], add[mul[a, inner], mul[b, a2]]]
        d3 = add[d, d2]
        return linalg.encode_vectors(np.array([a3, b3, c3, d3]).T, self.q)

    def group(self, spot_check=True):
        F = self.field
        # the quadruples with one coefficient 1, the others 0
        gens = linalg.encode_vectors(np.eye(4 * F.s, dtype=np.int64), F.p).tolist()
        G = FiniteGroup(self.n, self.mult_indices, identity=0, gens=gens, name="USp4(%d)" % self.q)
        G.usp4 = self
        if spot_check:
            G.spot_check_axioms()
        return G

    def semidirect_data(self):
        """(H, A, table) for U = H lt-semidirect A with H = {(h,0,0,0)} and
        A = {(0,b,c,d)}: table[h, a] is the index of (h,0,0,0) (0,b,c,d)
        (h,0,0,0)^-1 in A, from one pass of the law over every pair.  The
        index of (h,0,0,0) is the field index of h, and that of (0,b,c,d)
        is q times the base-q index a of (b, c, d)."""
        F, q = self.field, self.q
        H = AbelianGroup([F.p] * F.s)
        A = AbelianGroup([F.p] * (3 * F.s))
        h = np.repeat(np.arange(q, dtype=np.int64), A.order)
        x = q * np.tile(np.arange(A.order, dtype=np.int64), q)
        neg = F.index_tables()[1][0]  # neg[h] = 0 - h
        y = self.mult_indices(self.mult_indices(h, x), neg[h])
        if (y % q).any():
            raise AssertionError("A is not normal (bug)")
        return H, A, (y // q).reshape(q, A.order)


def usp4(q, spot_check=True):
    """USp4(F_q) as a FiniteGroup of quadruples."""
    return USp4(q).group(spot_check=spot_check)


def usp4_little_groups_table(q):
    """Character table via the little-groups method, reindexed onto the
    quadruple group so it is directly comparable with other tables."""
    U = USp4(q)
    G = U.group(spot_check=False)
    H, A, action = U.semidirect_data()
    table = little_groups(H, A, action)
    Gsemi = table.group
    # (h, a) -> (h,0,0,0) * (0,b,c,d): the H and A indices are the field
    # index of h and the base-q index of (b, c, d), so (0,b,c,d) is q * a
    h, a = np.divmod(np.arange(G.n, dtype=np.int64), A.order)
    to_u = G.mult_bulk(h, q * a)
    if (np.bincount(to_u, minlength=G.n) != 1).any():
        raise AssertionError("semidirect correspondence is not a bijection")
    gens = Gsemi.generators()
    if not is_homomorphism(to_u.__getitem__, Gsemi.mult_bulk, G.mult_bulk, G.n, gens):
        raise AssertionError("semidirect correspondence is not a homomorphism")
    cd_u = G.conjugacy_classes()
    # class j of the semidirect product is class ju[j] of the quadruple group
    ju = cd_u.class_of[to_u[table.class_data.reps]]
    if (np.bincount(ju, minlength=cd_u.num_classes) != 1).any():
        raise AssertionError("class correspondence incomplete")
    return CharacterTable.from_index(cd_u, table.values, table.index[:, np.argsort(ju)])[0]


def usp4_lusztig_table(q, psi_k=1):
    """Lusztig's golden table for USp4(F_q), q = 2^s.

    (i)   q^2 linear characters psi0(x a + y d);
    (ii)  q-1 of degree q supported on [0,b,c,0] with value q psi0(x b);
    (iii) q-1 of degree q supported on [0,b,c,0] with value q psi0(x c);
    (iv)  4(q-1)^2 of degree q/2 indexed by (a0, d0, eps1, eps2):
          [a,b,c,d] -> (q/2) eps1(a) eps2(d) psi0(a0^-2 d0^-1 (ba + b a0 + c))
          when a in {0, a0} and d in {0, d0}, else 0.
    """
    U = USp4(q)
    F = U.field
    if F.p != 2:
        raise ValueError("the Lusztig table needs q = 2^s")
    if psi_k % 2 == 0:
        raise ValueError("additive character psi(1) = zeta_2^%d is trivial" % psi_k)
    G = U.group(spot_check=False)
    cd = G.conjugacy_classes()

    # each formula on every quadruple at once, in field-index arithmetic
    add, _, mul = F.index_tables()
    inv = np.argmax(mul == F.index(F.one), axis=1)  # inv[0] is unused
    trace = np.array([F.trace_to_prime(F.from_index(x)) for x in range(q)])
    psi0 = np.where((psi_k * trace) % 2, -1, 1)  # tr-composed additive character
    a, b, c, d = linalg.decode_indices(np.arange(G.n), 4, q).T

    def formulas():
        for x in range(q):
            for y in range(q):
                yield psi0[add[mul[x, a], mul[y, d]]]
        central = (a == 0) & (d == 0)
        for entry in (b, c):
            for x in range(1, q):
                yield np.where(central, q * psi0[mul[x, entry]], 0)
        half = q // 2
        for a0 in range(1, q):
            for d0 in range(1, q):
                coef = mul[inv[mul[a0, a0]], inv[d0]]
                support = ((a == 0) | (a == a0)) & ((d == 0) | (d == d0))
                chi = half * psi0[mul[coef, add[add[mul[b, a], mul[b, a0]], c]]]
                for e1 in (1, -1):
                    for e2 in (1, -1):
                        sign = np.where(a == a0, e1, 1) * np.where(d == d0, e2, 1)
                        yield np.where(support, sign * chi, 0)

    rep_of = cd.reps[cd.class_of]
    rows = []
    for values in formulas():
        # class constancy: every displayed formula is constant on classes
        if (values != values[rep_of]).any():
            raise AssertionError("a Lusztig formula is not a class function")
        rows.append(values[cd.reps])
    # an integer value v is v times the one root of unity of order 1
    table, _ = CharacterTable.from_root_counts(cd, 1, rows)
    table.group = G
    return table


def gutkin_witness(A, chi, G=None, cd=None):
    """A subalgebra B and a linear character of B^x inducing chi, by
    exhaustive search over multiplicatively closed subspaces."""
    p, d = A.p, A.dim
    if d > 4 or p > 3:
        raise ValueError("search budget: dim A <= 4 over F_2 or F_3")
    G = G or algebra_group(A, spot_check=False)
    cd = cd or G.conjugacy_classes()
    deg = int(chi.degree.rational_value())
    target_dim = d - round(math.log(deg, p))
    if p**target_dim * deg != p**d:
        raise ValueError("degree does not divide the group order compatibly")
    for rows in _subspaces(d, target_dim, p):
        if linalg.reduce_by(rows, A.product(rows[:, None], rows), p).any():
            continue  # not a subalgebra
        sub_elems = np.sort(
            linalg.encode_vectors(linalg.enumerate_row_space(rows, p), p)
        )
        found = _linear_inducing(G, cd, chi, sub_elems)
        if found is not None:
            return rows, found
    return None


def _linear_inducing(G, cd, chi, sub_elems):
    """A linear character of the subgroup inducing chi, or None.

    Linear characters are pulled back from the Dixon table of the
    abelianization of the subgroup (which may have exponent p^2, so the
    elementary-abelian machinery does not apply).  A member's key is the
    class of its image there, so one induction count serves every row."""
    from .dixon import dixon_table

    H = G.subgroup(sub_elems)
    Q, coset_rep, qreps = H.quotient(H.derived_subgroup())
    qtable = dixon_table(Q)
    keys = qtable.class_data.class_of[np.searchsorted(qreps, coset_rep)]
    counts = induce_from_roots(cd, H.members, keys, qtable.class_data.num_classes)
    C, M, den = to_ints(qtable.values)
    for row, index in zip(qtable.rows, qtable.index):
        if tuple(from_ints(lincomb(counts, C[index]), M, den * H.n)) == chi.values:
            return row
    return None


def _subspaces(d, k, p):
    """All k-dim subspaces of F_p^d as RREF rows (canonical, exhaustive)."""
    if k == 0:
        yield np.zeros((0, d), dtype=np.int64)
        return
    for pivots in itertools.combinations(range(d), k):
        free_cols = [
            (r, c)
            for r in range(k)
            for c in range(d)
            if c > pivots[r] and c not in pivots
        ]
        for assign in itertools.product(range(p), repeat=len(free_cols)):
            rows = np.zeros((k, d), dtype=np.int64)
            for r in range(k):
                rows[r, pivots[r]] = 1
            for (r, c), v in zip(free_cols, assign):
                rows[r, c] = v
            yield rows
