"""Free nilpotent Lie algebra on two generators X, Y over exact rationals.

Elements live on a Hall basis (length-then-lex Hall family).  The truncated
Campbell-Hausdorff series is computed as log(exp X * exp Y) in the truncated
free associative algebra and rewritten to the Hall basis by solving an exact
linear system; an independent Dynkin-formula oracle double-checks the
constants.  The phi/psi correction polynomials satisfy

    log(exp X exp Y) = exp(ad phi)(X) + exp(ad psi)(Y)   mod degree > c

and are found degree by degree from the linear equations
[X, phi_n] + [Y, psi_n] = eta_{n+1}.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .linalg import rational_mod, reduced

X, Y = 0, 1
_GENS = (X, Y)
_F0 = Fraction(0)
_F1 = Fraction(1)


def degree(w):
    if isinstance(w, int):
        return 1
    return degree(w[0]) + degree(w[1])


@lru_cache(maxsize=None)
def word_str(w):
    if isinstance(w, int):
        return "XY"[w]
    return "[%s,%s]" % (word_str(w[0]), word_str(w[1]))


def word_key(w):
    return (degree(w), word_str(w))


@lru_cache(maxsize=None)
def hall_words(c):
    """All Hall words of degree <= c, sorted by (degree, lex)."""
    by_deg = {1: list(_GENS)}
    for n in range(2, c + 1):
        words = []
        for du in range(1, n):
            dv = n - du
            for u in by_deg.get(du, ()):
                for v in by_deg.get(dv, ()):
                    if word_key(u) <= word_key(v):
                        continue
                    if isinstance(u, tuple) and word_key(u[1]) > word_key(v):
                        continue
                    words.append((u, v))
        by_deg[n] = sorted(words, key=word_key)
    out = []
    for n in range(1, c + 1):
        out.extend(by_deg.get(n, ()))
    return tuple(out)


@lru_cache(maxsize=None)
def bracket_words(a, b):
    """[a, b] for Hall words a, b as a Hall-basis combination (dict)."""
    if a == b:
        return {}
    if word_key(a) < word_key(b):
        return {w: -c for w, c in bracket_words(b, a).items()}
    # now a > b
    if isinstance(a, int) or word_key(a[1]) <= word_key(b):
        return {(a, b): _F1}
    # Jacobi: [[a1,a2],b] = [[a1,b],a2] + [a1,[a2,b]]
    a1, a2 = a
    out = {}
    for w, c in bracket_words(a1, b).items():
        for w2, c2 in bracket_words(w, a2).items():
            _acc(out, w2, c * c2)
    for w, c in bracket_words(a2, b).items():
        for w2, c2 in bracket_words(a1, w).items():
            _acc(out, w2, c * c2)
    return {w: c for w, c in out.items() if c}


def _acc(d, k, v):
    nv = d.get(k, _F0) + v
    if nv:
        d[k] = nv
    elif k in d:
        del d[k]


class LieSeries:
    """A Lie element supported on Hall words of degree <= c."""

    __slots__ = ("c", "terms")

    def __init__(self, c, terms=None):
        self.c = c
        self.terms = {}
        if terms:
            for w, v in terms.items():
                v = Fraction(v)
                if v and degree(w) <= c:
                    self.terms[w] = v

    @staticmethod
    def generator(g, c):
        return LieSeries(c, {g: _F1})

    def __add__(self, other):
        out = dict(self.terms)
        for w, v in other.terms.items():
            _acc(out, w, v)
        return LieSeries(min(self.c, other.c), out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, v in other.terms.items():
            _acc(out, w, -v)
        return LieSeries(min(self.c, other.c), out)

    def __neg__(self):
        return LieSeries(self.c, {w: -v for w, v in self.terms.items()})

    def scale(self, r):
        r = Fraction(r)
        if not r:
            return LieSeries(self.c)
        return LieSeries(self.c, {w: r * v for w, v in self.terms.items()})

    def bracket(self, other):
        c = min(self.c, other.c)
        out = {}
        for wa, va in self.terms.items():
            da = degree(wa)
            for wb, vb in other.terms.items():
                if da + degree(wb) > c:
                    continue
                coef = va * vb
                for w, cc in bracket_words(wa, wb).items():
                    _acc(out, w, coef * cc)
        return LieSeries(c, out)

    def truncate(self, c):
        return LieSeries(c, {w: v for w, v in self.terms.items() if degree(w) <= c})

    def component(self, n):
        return LieSeries(self.c, {w: v for w, v in self.terms.items() if degree(w) == n})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LieSeries) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "LieSeries(0)"
        items = sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))
        return "LieSeries(%s)" % " + ".join(
            "%s*%s" % (v, word_str(w)) for w, v in items
        )


def exp_ad(phi, target):
    """exp(ad phi)(target) = sum_k (ad phi)^k(target) / k!, truncated."""
    c = min(phi.c, target.c)
    out = target.truncate(c)
    cur = target.truncate(c)
    k = 1
    while True:
        cur = phi.bracket(cur)
        if cur.is_zero():
            break
        out = out + cur.scale(Fraction(1, math.factorial(k)))
        k += 1
        if k > c:
            break
    return out


# -- truncated free associative algebra --------------------------------------


def _assoc_mul(a, b, c):
    out = {}
    for wa, va in a.items():
        la = len(wa)
        for wb, vb in b.items():
            if la + len(wb) > c:
                continue
            _acc(out, wa + wb, va * vb)
    return out


def _assoc_exp_gen(g, c):
    out = {(): _F1}
    for k in range(1, c + 1):
        out[(g,) * k] = Fraction(1, math.factorial(k))
    return out


def _assoc_log(a, c):
    """log of a series with constant term 1 (truncated to length <= c)."""
    u = dict(a)
    if u.get((), _F0) != 1:
        raise ValueError("log needs constant term 1")
    del u[()]
    out = {}
    power = {(): _F1}
    for k in range(1, c + 1):
        power = _assoc_mul(power, u, c)
        coef = Fraction((-1) ** (k + 1), k)
        for w, v in power.items():
            _acc(out, w, coef * v)
    return out


@lru_cache(maxsize=None)
def _hall_to_assoc(w):
    if isinstance(w, int):
        return {(w,): _F1}
    a = _hall_to_assoc(w[0])
    b = _hall_to_assoc(w[1])
    big = 64
    out = _assoc_mul(a, b, big)
    for ww, v in _assoc_mul(b, a, big).items():
        _acc(out, ww, -v)
    return out


def _assoc_to_hall(component, n, c):
    """Rewrite a degree-n homogeneous Lie element (assoc form) on Hall words."""
    basis = [w for w in hall_words(c) if degree(w) == n]
    assoc_words = sorted({w for w in component} | {
        aw for b in basis for aw in _hall_to_assoc(b)
    })
    index = {w: i for i, w in enumerate(assoc_words)}
    # columns: hall basis expansions; solve M x = v exactly
    rows = len(assoc_words)
    mat = [[_F0] * len(basis) for _ in range(rows)]
    for j, b in enumerate(basis):
        for aw, v in _hall_to_assoc(b).items():
            mat[index[aw]][j] = v
    vec = [_F0] * rows
    for aw, v in component.items():
        vec[index[aw]] = v
    sol = _solve_exact(mat, vec, len(basis))
    if sol is None:
        raise ArithmeticError("associative element is not a Lie element")
    return {b: sol[j] for j, b in enumerate(basis) if sol[j]}


def _solve_exact(mat, vec, ncols):
    rows = [list(r) + [v] for r, v in zip(mat, vec)]
    m = len(rows)
    piv = []
    r = 0
    for ccol in range(ncols):
        sel = None
        for i in range(r, m):
            if rows[i][ccol]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][ccol]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][ccol]:
                f = rows[i][ccol]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv.append(ccol)
        r += 1
    for i in range(r, m):
        if rows[i][ncols]:
            return None
    out = [_F0] * ncols
    for i, ccol in enumerate(piv):
        out[ccol] = rows[i][ncols]
    return out


@lru_cache(maxsize=None)
def bch_series(c):
    """Truncated Campbell-Hausdorff series CH(X, Y) up to degree c."""
    if c < 1:
        raise ValueError("class bound must be >= 1")
    ex = _assoc_exp_gen(X, c)
    ey = _assoc_exp_gen(Y, c)
    log = _assoc_log(_assoc_mul(ex, ey, c), c)
    terms = {}
    for n in range(1, c + 1):
        comp = {w: v for w, v in log.items() if len(w) == n}
        terms.update(_assoc_to_hall(comp, n, c))
    series = LieSeries(c, terms)
    if not denominators_invertible(series, c):
        raise ArithmeticError("BCH coefficients not in Z[1/c!]")
    return series


def denominators_invertible(series, c):
    """True if every coefficient denominator has all prime factors <= c."""
    for v in series.terms.values():
        d = v.denominator
        for q in range(2, c + 1):
            while d % q == 0:
                d //= q
        if d != 1:
            return False
    return True


@lru_cache(maxsize=None)
def dynkin_bch(c):
    """CH(X, Y) via Dynkin's explicit formula (independent oracle).

    CH = sum over k >= 1 and blocks (p_i, q_i) != (0, 0) of
    (-1)^(k-1)/k * rnb(X^p1 Y^q1 ... X^pk Y^qk) / (n * prod p_i! q_i!)
    where n is the total degree and rnb is the right-nested bracketing
    [w1,[w2,[...[w_{m-1}, w_m]...]]].
    """
    total = LieSeries(c)
    for blocks in _compositions(c):
        k = len(blocks)
        word = []
        fact = 1
        for (pp, qq) in blocks:
            word.extend([X] * pp + [Y] * qq)
            fact *= math.factorial(pp) * math.factorial(qq)
        n = len(word)
        coef = Fraction((-1) ** (k - 1), k) / (n * fact)
        term = LieSeries.generator(word[-1], c)
        for g in reversed(word[:-1]):
            term = LieSeries.generator(g, c).bracket(term)
            if term.is_zero():
                break
        if not term.is_zero():
            total = total + term.scale(coef)
    return total


def _compositions(c):
    """Sequences of blocks (p, q) with p+q >= 1 and total degree <= c."""
    out = []

    def rec(prefix, left):
        for pp in range(0, left + 1):
            for qq in range(0, left - pp + 1):
                if pp + qq == 0:
                    continue
                blk = prefix + [(pp, qq)]
                out.append(blk)
                rec(blk, left - pp - qq)

    rec([], c)
    return out


@lru_cache(maxsize=None)
def phi_psi_series(c):
    """Lie polynomials (phi, psi) with
    log(exp X exp Y) = exp(ad phi)(X) + exp(ad psi)(Y) mod degree > c.

    At each degree the linear system [phi_n, X] + [psi_n, Y] = eta_{n+1} is
    solved; among its solutions we set every free unknown to zero with phi
    unknowns ordered first, which zeroes the psi part wherever the system
    permits (ties resolved by the Hall order).  The defining identity is
    re-verified symbolically before returning.
    """
    bch = bch_series(c)
    phi = LieSeries(c)
    psi = LieSeries(c)
    gx = LieSeries.generator(X, c)
    gy = LieSeries.generator(Y, c)
    for n in range(1, c):
        current = exp_ad(phi, gx) + exp_ad(psi, gy)
        delta = (bch - current).truncate(n + 1)
        target = delta.component(n + 1)
        if target.is_zero():
            continue
        basis_n = [w for w in hall_words(c) if degree(w) == n]
        basis_n1 = [w for w in hall_words(c) if degree(w) == n + 1]
        idx = {w: i for i, w in enumerate(basis_n1)}
        ncols = 2 * len(basis_n)
        mat = [[_F0] * ncols for _ in range(len(basis_n1))]
        for j, w in enumerate(basis_n):
            wl = LieSeries(c, {w: _F1})
            for w2, v in wl.bracket(gx).terms.items():
                mat[idx[w2]][j] = v
            for w2, v in wl.bracket(gy).terms.items():
                mat[idx[w2]][len(basis_n) + j] = v
        vec = [_F0] * len(basis_n1)
        for w, v in target.terms.items():
            vec[idx[w]] = v
        sol = _solve_exact(mat, vec, ncols)
        if sol is None:
            raise ArithmeticError(
                "phi/psi system inconsistent at degree %d (bug)" % n
            )
        phi = phi + LieSeries(
            c, {w: sol[j] for j, w in enumerate(basis_n)}
        )
        psi = psi + LieSeries(
            c, {w: sol[len(basis_n) + j] for j, w in enumerate(basis_n)}
        )
    check = (exp_ad(phi, gx) + exp_ad(psi, gy) - bch).truncate(c)
    if not check.is_zero():
        raise ArithmeticError("phi/psi identity failed verification (bug)")
    return phi, psi


# -- evaluation in concrete rings --------------------------------------------


def evaluate(series, ring, assignment):
    """Evaluate a LieSeries in a LieRing under generator -> vector.

    assignment maps X and Y (or just the generators appearing) to ring
    vectors or to (n, d) batches of rows, evaluated rowwise; requires ring
    nilpotence class <= series bound and < p.  Each term is below p^2, so
    the terms are summed in int64 and reduced once at the end, or after
    every `run` terms where p^2 times their number would not fit.
    """
    import numpy as np

    p = ring.p
    values = {g: reduced(v, p) for g, v in assignment.items()}
    run = max(1, (2**63 - 1) // p**2)
    acc = np.zeros(ring.dim, dtype=np.int64)
    for i, (w, coeff) in enumerate(series.terms.items(), 1):
        acc = acc + rational_mod(coeff, p) * _word_value(w, values, ring)
        if i % run == 0:
            acc %= p
    acc %= p
    return acc


def _word_value(w, values, ring):
    """The bracket word w under `values` (memoized in it).  A module-level
    function, not a closure over `values`: a recursive closure is a
    reference cycle, which keeps every intermediate batch alive until the
    cyclic garbage collector runs."""
    if w not in values:
        if isinstance(w, int):
            raise KeyError("generator %d unassigned" % w)
        values[w] = ring.bracket(_word_value(w[0], values, ring), _word_value(w[1], values, ring))
    return values[w]


def _exp_ad_pairs(ring, PHI, TARGET, c):
    """exp(ad phi_i)(target_i) rowwise, truncated at the class bound."""
    import numpy as np

    out = TARGET.copy()
    cur = TARGET
    for k in range(1, c + 1):
        cur = ring.bracket(PHI, cur)
        if not cur.any():
            break
        out = (out + rational_mod(Fraction(1, math.factorial(k)), ring.p) * cur) % ring.p
    return out


def substitution_bijection(ring):
    """Is h(x, y) = (exp(ad phi(x,y)) x, exp(ad psi(x,y)) y) a bijection on
    g x g?  Exhaustive over all pairs of the finite ring."""
    import numpy as np

    from . import linalg

    c = max(ring.nilpotence_class(), 1)
    phi, psi = phi_psi_series(c)
    n = ring.order
    pts = ring.all_elements()
    XS = np.repeat(pts, n, axis=0)
    YS = np.tile(pts, (n, 1))
    PHI = evaluate(phi, ring, {X: XS, Y: YS})
    PSI = evaluate(psi, ring, {X: XS, Y: YS})
    HX = _exp_ad_pairs(ring, PHI, XS, c)
    HY = _exp_ad_pairs(ring, PSI, YS, c)
    # the pair (x, y) is one point of F_p^2d, x the high digits
    keys = linalg.encode_vectors(np.concatenate([HY, HX], axis=1), ring.p)
    return bool((np.bincount(keys, minlength=n * n) == 1).all())
