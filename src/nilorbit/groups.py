"""Black-box finite groups: elements are indices, multiplication one
vectorized law on index arrays.

Conjugacy classes, center, derived subgroup, subgroup closure, quotients,
induced characters, the abelian little-groups method, and twisted (phi-)
conjugacy all live here.  Passes over every element refuse orders above
WHOLE_GROUP_BUDGET (2^20).  Every algorithm calls the law on whole index
arrays: classes and twisted classes are one image table per generator
partitioned by the orbit kernel's label propagation, inverses and element
orders one powering pass, closures one bulk call per frontier.  A scalar
oracle enters through build_group, which loops over the pairs of each bulk
call.  Homomorphism checks (actions, twisted automorphisms, the USp4
correspondence) are one complete check on generators, is_homomorphism.
Induction is one count, induce_from_roots: a class function on a subgroup
is an integer key per member and a value per key, and the induced
character is the per-class key counts times the centralizer orders,
combined with the values over |H| (induce_character).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .chartable import CharacterTable, ClassFunction
from .cyclo import from_ints, lincomb, to_ints

# group-law pairs per call in class_pair_counts; larger blocks raise peak
# memory through the temporaries of the Lazard law
PAIR_BLOCK = 1 << 12
# largest order a pass over every element takes: such a pass holds int64
# arrays over the whole group and the law's temporaries for all of it
WHOLE_GROUP_BUDGET = 1 << 20


@dataclass
class ClassData:
    """Conjugacy-class bookkeeping for a group on indices [0, n)."""

    n: int
    class_of: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray
    inv_class: np.ndarray
    identity_class: int

    @property
    def num_classes(self):
        return len(self.reps)

    def same_as(self, other):
        return (
            self.n == other.n
            and len(self.reps) == len(other.reps)
            and (self.class_of == other.class_of).all()
        )


class FiniteGroup:
    """A finite group on [0, n) given by one vectorized law.

    mult_bulk(I, J) returns the products I[k] J[k] of two index arrays;
    inv_bulk(I), when given, the inverses (otherwise one bulk powering pass
    computes them all, once).  Every algorithm below works on whole index
    arrays; the scalar mult/inv are conveniences on top.  The inverses, the
    conjugacy classes and the class pair counts (the t^3 int32 table that
    convolution contracts against) are computed once and cached.  A pass
    over every element refuses a group of more than WHOLE_GROUP_BUDGET
    elements with a ValueError, before allocating.
    """

    def __init__(
        self,
        n,
        mult_bulk,
        inv_bulk=None,
        identity=0,
        gens=None,
        classes_hook=None,
        name="",
    ):
        self.n = n
        self._mult_bulk = mult_bulk
        self._inv_bulk = inv_bulk
        self.identity = identity
        self.gens = list(gens) if gens is not None else None
        self._classes_hook = classes_hook
        self.name = name
        self._inverses = None
        self._classes = None
        self._pair_counts = None

    def __repr__(self):
        return "FiniteGroup(n=%d%s)" % (self.n, ", %s" % self.name if self.name else "")

    # -- the law -------------------------------------------------------------

    def mult_bulk(self, I, J):
        I = np.asarray(I, dtype=np.int64)
        J = np.asarray(J, dtype=np.int64)
        if not I.size:
            return I.copy()
        return np.asarray(self._mult_bulk(I, J), dtype=np.int64)

    def inv_bulk(self, I):
        I = np.asarray(I, dtype=np.int64)
        if self._inv_bulk is not None:
            return np.asarray(self._inv_bulk(I), dtype=np.int64)
        return self.inverses()[I]

    def inverses(self):
        """inverses()[i] = i^-1 for every element, computed once."""
        if self._inverses is None:
            self._check_budget()
            everything = np.arange(self.n, dtype=np.int64)
            if self._inv_bulk is not None:
                self._inverses = self.inv_bulk(everything)
            else:
                self._inverses = self._powering_pass(everything)[1]
        return self._inverses

    def _powering_pass(self, I):
        """(orders, inverses) of the elements I: all are raised to x^k at
        once, k = 1, 2, ..., each dropping out when x^(k+1) is the identity."""
        I = np.asarray(I, dtype=np.int64)
        orders = np.ones(len(I), dtype=np.int64)
        inverses = I.copy()  # the identity is its own inverse
        cur = I.copy()
        active = np.flatnonzero(I != self.identity)
        for k in range(2, self.n + 2):
            if not len(active):
                return orders, inverses
            nxt = self.mult_bulk(cur[active], I[active])
            done = nxt == self.identity
            inverses[active[done]] = cur[active[done]]
            orders[active[done]] = k
            cur[active] = nxt
            active = active[~done]
        raise ValueError("element %d has no inverse (oracle broken)" % I[active[0]])

    def _check_budget(self):
        """Refuses a pass over every element of a group above the budget,
        before anything is allocated."""
        if self.n > WHOLE_GROUP_BUDGET:
            raise ValueError(
                "group order %d exceeds the whole-group budget %d" % (self.n, WHOLE_GROUP_BUDGET)
            )

    def mult(self, i, j):
        return int(self.mult_bulk([i], [j])[0])

    def inv(self, i):
        return int(self.inv_bulk([i])[0])

    def commutator_bulk(self, A, B):
        """[a, b] = a b a^-1 b^-1 for every pair (A[k], B[k])."""
        AB = self.mult_bulk(A, B)
        return self.mult_bulk(AB, self.mult_bulk(self.inv_bulk(A), self.inv_bulk(B)))

    def _conj_bulk(self, g, X):
        """g x g^-1 for every x in X."""
        X = np.asarray(X, dtype=np.int64)
        left = self.mult_bulk(np.full(len(X), g, dtype=np.int64), X)
        return self.mult_bulk(left, np.full(len(X), self.inv(g), dtype=np.int64))

    def generators(self):
        if self.gens is not None:
            return self.gens
        self.gens = self.minimal_generators()
        return self.gens

    def minimal_generators(self):
        """A small generating set, greedily: adjoin the least element
        outside the closure so far, then re-close under right products by
        the generators, one bulk call per frontier."""
        gens = []
        closure = np.zeros(self.n, dtype=bool)
        closure[self.identity] = True
        while not closure.all():
            gens.append(int(np.argmin(closure)))
            frontier = np.flatnonzero(closure)
            while len(frontier):
                prods = self.mult_bulk(np.repeat(frontier, len(gens)), np.tile(gens, len(frontier)))
                frontier = _fresh(closure, prods)
        return gens

    # -- axioms (spot check) -------------------------------------------------

    def spot_check_axioms(self, seed=0, triples=200):
        """Identity/inverses exhaustively; associativity on random triples."""
        self._check_budget()
        everything = np.arange(self.n, dtype=np.int64)
        ident = np.full(self.n, self.identity, dtype=np.int64)
        bad = (self.mult_bulk(ident, everything) != everything) | (
            self.mult_bulk(everything, ident) != everything
        )
        if bad.any():
            raise AssertionError("identity axiom fails at %d" % np.argmax(bad))
        bad = self.mult_bulk(everything, self.inverses()) != self.identity
        if bad.any():
            raise AssertionError("inverse axiom fails at %d" % np.argmax(bad))
        rng = np.random.default_rng(seed)
        a, b, c = np.array([rng.integers(0, self.n, 3) for _ in range(triples)]).T
        bad = self.mult_bulk(self.mult_bulk(a, b), c) != self.mult_bulk(a, self.mult_bulk(b, c))
        if bad.any():
            k = np.argmax(bad)
            raise AssertionError("associativity fails at (%d,%d,%d)" % (a[k], b[k], c[k]))
        return True

    # -- conjugacy classes ------------------------------------------------------

    def conjugacy_classes(self):
        """Classes as connected components of the conjugation action of the
        generators: one image table per generator, then the orbit kernel's
        label propagation.  Classes are numbered by increasing seed and
        each rep is its class minimum."""
        if self._classes is not None:
            return self._classes
        if self._classes_hook is not None:
            self._classes = self._classes_hook()
            return self._classes
        self._check_budget()
        everything = np.arange(self.n, dtype=np.int64)
        # made in the call, so orbit_labels frees the tables before the ids
        class_of = kernels.orbit_labels(
            [self._conj_bulk(g, everything).astype(np.int32) for g in self.generators()], self.n
        )
        reps = kernels.first_indices(class_of).astype(np.int64)
        sizes = np.bincount(class_of, minlength=len(reps))
        inv_class = class_of[self.inv_bulk(reps)]
        self._classes = ClassData(
            self.n, class_of, reps, sizes, inv_class, int(class_of[self.identity])
        )
        return self._classes

    def class_pair_counts(self):
        """K[k, a * t + b] = #{(x, y) : x in C_a, y in C_b, x y = rep_k} on
        conjugacy_classes(), as int32 (every count is at most n), computed
        once.  y = x^-1 rep_k, so the (x^-1, rep_k) pairs of a few whole
        reps go through the law per call, PAIR_BLOCK pairs or one rep, and
        one bincount over (rep, class of x, class of y) fills their rows."""
        if self._pair_counts is None:
            cd = self.conjugacy_classes()
            n, t = self.n, cd.num_classes
            per_call = max(1, PAIR_BLOCK // n)
            K = np.empty((t, t * t), dtype=np.int32)
            for k in range(0, t, per_call):
                c = min(per_call, t - k)
                ys = self.mult_bulk(np.tile(self.inverses(), c), np.repeat(cd.reps[k:k + c], n))
                key = (np.repeat(np.arange(c) * t, n) + np.tile(cd.class_of, c)) * t
                K[k:k + c] = np.bincount(key + cd.class_of[ys], minlength=c * t * t).reshape(c, -1)
            self._pair_counts = K
        return self._pair_counts

    def element_orders(self, I):
        return self._powering_pass(I)[0]

    def exponent(self):
        return math.lcm(*self.element_orders(self.conjugacy_classes().reps).tolist())

    def power_classes(self, e):
        """pm[j][s] = class of rep_j^s for 0 <= s < e."""
        cd = self.conjugacy_classes()
        pm = np.zeros((cd.num_classes, e), dtype=np.int64)
        x = np.full(cd.num_classes, self.identity, dtype=np.int64)
        for s in range(e):
            pm[:, s] = cd.class_of[x]
            x = self.mult_bulk(x, cd.reps)
        return pm

    # -- subgroups ---------------------------------------------------------------

    def normal_closure(self, seeds):
        """The least normal subgroup containing seeds: the closure of the
        identity under right products by seeds and conjugation by the
        generators, one frontier at a time.  (A set closed under both is
        closed under right products by every conjugate of a seed.)"""
        gens = self.generators()
        seeds = np.flatnonzero(np.bincount(np.asarray(seeds, dtype=np.int64), minlength=self.n))
        members = np.zeros(self.n, dtype=bool)
        members[self.identity] = True
        frontier = np.array([self.identity], dtype=np.int64)
        while len(frontier):
            prods = [frontier] + [self._conj_bulk(g, frontier) for g in gens]
            if len(seeds):
                prods.append(
                    self.mult_bulk(np.repeat(frontier, len(seeds)), np.tile(seeds, len(frontier)))
                )
            frontier = _fresh(members, np.concatenate(prods))
        return np.flatnonzero(members).astype(np.int64)

    def center(self):
        self._check_budget()
        everything = np.arange(self.n, dtype=np.int64)
        central = np.ones(self.n, dtype=bool)
        for g in self.generators():
            G = np.full(self.n, g, dtype=np.int64)
            central &= self.mult_bulk(everything, G) == self.mult_bulk(G, everything)
        return np.flatnonzero(central).astype(np.int64)

    def _generator_pairs(self):
        gens = np.asarray(self.generators(), dtype=np.int64)
        return np.repeat(gens, len(gens)), np.tile(gens, len(gens))

    def derived_subgroup(self):
        return self.normal_closure(self.commutator_bulk(*self._generator_pairs()))

    def is_abelian(self):
        a, b = self._generator_pairs()
        return bool((self.mult_bulk(a, b) == self.mult_bulk(b, a)).all())

    def subgroup(self, elems):
        """The subgroup on the distinct elements elems as its own group:
        element k is members[k], the k-th least, under this group's law.  A
        product, inverse or identity outside the set raises ValueError."""
        members = np.sort(np.asarray(elems, dtype=np.int64))
        if (members[1:] == members[:-1]).any():
            raise ValueError("subgroup elements repeat")
        padded = np.append(members, -1)  # a search past the end reads -1

        def position(X):
            pos = np.searchsorted(members, X)
            if (padded[pos] != X).any():
                raise ValueError("the elements are not closed under the law of %r" % self)
            return pos

        H = FiniteGroup(
            len(members),
            lambda I, J: position(self.mult_bulk(members[I], members[J])),
            inv_bulk=lambda I: position(self.inv_bulk(members[I])),
            identity=int(position(self.identity)),
            name="subgroup of " + self.name,
        )
        H.members = members
        return H

    def quotient(self, normal_elems):
        """Quotient by a normal subgroup N; returns (group, coset_rep, reps).

        The cosets x N are the orbits of right multiplication by generators
        of N, found by the orbit kernel's label propagation.  Generators are
        adjoined greedily, each the least member of N outside the subgroup
        generated so far, one image table apiece.  coset_rep[x] is the least
        element of x N and reps are the coset minima, sorted.
        """
        self._check_budget()
        everything = np.arange(self.n, dtype=np.int64)
        outside = np.zeros(self.n, dtype=bool)
        outside[np.asarray(normal_elems, dtype=np.int64)] = True
        tables, labels = [], everything
        while True:
            outside &= labels != labels[self.identity]
            if not outside.any():
                break
            g = np.full(self.n, np.argmax(outside), dtype=np.int64)
            tables.append(self.mult_bulk(everything, g).astype(np.int32))
            labels = kernels.orbit_labels(tables, self.n)
        reps = kernels.first_indices(labels).astype(np.int64)
        coset_rep = reps[labels]  # labels[x] is the index of x's coset in reps

        def qmult(I, J):
            return labels[self.mult_bulk(reps[I], reps[J])]

        q = FiniteGroup(
            len(reps),
            qmult,
            identity=int(labels[self.identity]),
            gens=sorted({int(labels[g]) for g in self.generators()}),
            name=self.name + "/N",
        )
        return q, coset_rep, reps


def _fresh(members, elems):
    """The distinct elems outside the membership mask, in increasing order;
    they are marked as members."""
    hit = np.zeros(len(members), dtype=bool)
    hit[elems] = True
    hit &= ~members
    members |= hit
    return np.flatnonzero(hit)


def build_group(mult, n, gens=None, inv=None, identity=0, spot_check=True, **kw):
    """Spec entry point: wrap a scalar oracle mult(i, j) (and optionally
    inv(i)) as a bulk law, build caches, sanity-check axioms."""

    def scalar_loop(f):
        return lambda *args: np.fromiter(
            (f(*map(int, t)) for t in zip(*args)), dtype=np.int64, count=len(args[0])
        )

    G = FiniteGroup(
        n,
        scalar_loop(mult),
        inv_bulk=None if inv is None else scalar_loop(inv),
        identity=identity,
        gens=gens,
        **kw,
    )
    if spot_check:
        G.spot_check_axioms()
    G.conjugacy_classes()
    return G


# -- induced characters ---------------------------------------------------------


def induce_character(class_data, elems, keys, values):
    """Ind_H^G of the class function on the subgroup H on the distinct
    elems that is values[keys[i]] at elems[i], for integer keys below
    len(values): the class counts of induce_from_roots combined with the
    values over |H|, in integer form."""
    C, M, den = to_ints(values)
    counts = induce_from_roots(class_data, elems, keys, len(values))
    return ClassFunction(class_data, tuple(from_ints(lincomb(counts, C), M, den * len(elems))))


# -- abelian groups and the little-groups method --------------------------------


class AbelianGroup:
    """A finite abelian group presented as Z_{m1} x ... x Z_{mk}.

    Element indices are little-endian mixed radix (the first coordinate is
    the least significant digit), through linalg's codec; the *_indices
    methods are the group law on index arrays.
    """

    def __init__(self, moduli):
        self.moduli = tuple(int(m) for m in moduli)
        if any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be positive")
        self.order = math.prod(self.moduli)
        self.exponent = math.lcm(*self.moduli) if self.moduli else 1
        self._m = np.array(self.moduli, dtype=np.int64)

    def index(self, x):
        return int(self.encode(x))

    def from_index(self, idx):
        return tuple(self.digits(idx).tolist())

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x):
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def digits(self, I):
        """Coordinates of an index array, on a new trailing axis."""
        return linalg.decode_indices(I, len(self.moduli), self.moduli)

    def encode(self, D):
        """Indices of coordinate arrays (last axis), reduced mod the moduli."""
        return linalg.encode_vectors(D, self.moduli)

    def add_indices(self, I, J):
        return self.encode(self.digits(I) + self.digits(J))

    def neg_indices(self, I):
        return self.encode(-self.digits(I))

    def unit_indices(self):
        """Index of the k-th coordinate vector, for each k."""
        return self.encode(np.eye(len(self.moduli), dtype=np.int64))

    def char_exponents(self, chi, I):
        """r[..., k] with chi(I[k]) = zeta_e^r (e the exponent), for the
        character index chi (or an array of them, one row each)."""
        w = self.exponent // self._m
        return ((self.digits(chi) * w) @ self.digits(I).T) % self.exponent


def semidirect_product(H, A, table):
    """H lt-semidirect A, with table[h, a] the index of h . a in A for an
    action of H on A by automorphisms.

    Elements are pairs (h, a) indexed as h_index * |A| + a_index, with
    (h1, a1) * (h2, a2) = (h1 h2, act(h2^-1, a1) + a2)  [so A is normal].
    Law and inverse are index arithmetic, (h, a)^-1 = (h^-1, -act(h, a)).
    """
    nA = A.order

    def mult(I, J):
        h1, a1 = np.divmod(I, nA)
        h2, a2 = np.divmod(J, nA)
        return H.add_indices(h1, h2) * nA + A.add_indices(table[H.neg_indices(h2), a1], a2)

    def inv(I):
        h, a = np.divmod(I, nA)
        return H.neg_indices(h) * nA + A.neg_indices(table[h, a])

    gens = [int(u) * nA for u in H.unit_indices()] + [int(u) for u in A.unit_indices()]
    return FiniteGroup(H.order * nA, mult, inv_bulk=inv, identity=0, gens=gens, name="semidirect")


def little_groups(H, A, table):
    """Character table of H lt-semidirect A for finite abelian H, A, with
    table[h, a] the index of h . a in A (checked to be an action by
    automorphisms).

    Enumerates H-orbits Omega on the character group A^*, stabilizers
    H^chi, and characters psi of H^chi; the irreducible for (Omega, psi) is
    Ind_{H^chi lt-semidirect A}^{G} (psi-tilde tensor chi-tilde).
    """
    action = np.asarray(table, dtype=np.int64)
    _check_action(H, A, action)
    G = semidirect_product(H, A, action)
    cd = G.conjugacy_classes()
    nA = A.order
    dual = _dual_action(H, A, action)
    orbit_of = kernels.orbit_labels([dual[h] for h in H.unit_indices()], nA)
    # psi~ (x) chi~ at (h, a) is zeta_E^r, r the sum of both exponents at E
    E = math.lcm(H.exponent, A.exponent)
    counts, sizes = [], []  # row k has root counts counts[k] / sizes[k]
    for chi in kernels.first_indices(orbit_of):
        stab = np.flatnonzero(dual[:, chi] == chi)  # H^chi, the same on the orbit
        S_elems = (stab[:, None] * nA + np.arange(nA)).ravel()
        r_chi = A.char_exponents(chi, np.arange(nA)) * (E // A.exponent)
        for psi in _subgroup_characters(H, stab):
            r = ((psi * (E // H.exponent))[:, None] + r_chi).ravel() % E
            counts.append(induce_from_roots(cd, S_elems, r, E))
            sizes.append(len(S_elems))
    den = math.lcm(*sizes)
    counts = [c * (den // s) for c, s in zip(counts, sizes)]
    table, _ = CharacterTable.from_root_counts(cd, E, counts, den)
    table.group = G
    return table


def _dual_action(H, A, table):
    """dual[h, c] = index of the character h.chi_c, (h.chi)(a) = chi(act(h^-1, a)).

    The image character is read off A's coordinate vectors: its dual
    coordinate k is chi(act(h^-1, e_k)), an exponent of zeta_e that must be
    a multiple of e / m_k.
    """
    e, m = A.exponent, A._m
    B = A.digits(table[H.neg_indices(np.arange(H.order))][:, A.unit_indices()])  # [h, k, t]
    C = A.digits(np.arange(A.order)) * (e // m)  # [c, t]
    R = np.einsum("ct,hkt->hck", C, B) % e
    if ((R * m) % e).any():
        raise ArithmeticError("action does not permute characters")
    return A.encode(R * m // e)


def _subgroup_characters(H, stab):
    """All characters of the subgroup `stab` (element indices) of the
    abelian group H, as rows of zeta_e exponents on stab (e the exponent
    of H), in increasing lexicographic order."""
    keys = sorted(set(map(tuple, H.char_exponents(np.arange(H.order), stab).tolist())))
    keys = np.array(keys, dtype=np.int64).reshape(len(keys), len(stab))
    # a subgroup of an abelian group has exactly |stab| characters
    assert len(keys) == len(stab), "character restriction miscount"
    return keys


def induce_from_roots(cd, elems, keys, k):
    """The one induction count, from the subgroup H on the distinct elems
    with an integer key below k at each: counts[class(g), s] is |C_G(g)|
    times the number of elements of class(g) meet H with key s.  So the
    class function with value v_s on key s induces to
    Ind(g) = sum_s counts[class(g), s] v_s / |H|, the conjugation-count
    formula; for keys r and v_s = zeta_e^s the counts are root counts."""
    t = cd.num_classes
    counts = np.bincount(cd.class_of[elems] * k + keys, minlength=t * k).reshape(t, k)
    return counts * (cd.n // cd.sizes).astype(np.int64)[:, None]


def is_homomorphism(f, src_law, dst_law, n, gens):
    """f(x g) == f(x) f(g) for every x in [0, n) and each g in gens, with f
    and the laws on index arrays (f(x) may be a row per element).  For gens
    generating the source this makes f a homomorphism, by induction on word
    length: x = 1 gives f(1) = 1, and f(x w g) = f(x w) f(g) = f(x) f(w g)."""
    x = np.arange(n, dtype=np.int64)
    fx = f(x)
    for g in gens:
        g = np.full(n, g, dtype=np.int64)
        if not np.array_equal(f(src_law(x, g)), dst_law(fx, f(g))):
            return False
    return True


def _check_action(H, A, table):
    """table[h, a] = h . a is an action of H on A by automorphisms: the
    identity acts trivially, each generator of H additively and the rows
    compose as H adds (each row is then invertible: a power of it is the
    identity row), all checked by is_homomorphism."""
    nA = A.order
    if table.shape != (H.order, nA) or ((table < 0) | (table >= nA)).any():
        raise ValueError("action table must be |H| x |A| indices into A")
    if (table[0] != np.arange(nA)).any():
        raise ValueError("identity of H must act trivially")
    a_gens = A.unit_indices()
    for h in H.unit_indices():
        if not is_homomorphism(table[h].__getitem__, A.add_indices, A.add_indices, nA, a_gens):
            raise ValueError("action of %r is not additive" % (H.from_index(int(h)),))

    def compose(X, Y):
        return np.take_along_axis(X, Y, axis=1)

    if not is_homomorphism(table.__getitem__, H.add_indices, compose, H.order, H.unit_indices()):
        raise ValueError("action is not a homomorphism in H")


# -- twisted conjugacy ------------------------------------------------------------


def twisted_classes(G, phi, table=None):
    """phi-conjugacy classes.

    phi: permutation array on [0, n) (verified to be an automorphism).
    Returns a report dict; when `table` (a CharacterTable) is given, the
    count of phi-fixed rows is checked against the class count.
    """
    phi = np.asarray(phi, dtype=np.int64)
    n = G.n
    if phi.shape != (n,) or (np.sort(phi) != np.arange(n)).any():
        raise ValueError("phi is not a permutation of the group")
    if not is_homomorphism(phi.__getitem__, G.mult_bulk, G.mult_bulk, n, G.generators()):
        raise ValueError("phi is not an automorphism")

    # x -> phi(g) x g^-1 for each generator g, partitioned by the kernel
    everything = np.arange(n, dtype=np.int64)
    tables = []
    for g in G.generators():
        left = G.mult_bulk(np.full(n, phi[g], dtype=np.int64), everything)
        tables.append(G.mult_bulk(left, np.full(n, G.inv(g), dtype=np.int64)).astype(np.int32))
    labels = kernels.orbit_labels(tables, n)
    reps = kernels.first_indices(labels)
    report = {
        "labels": labels,
        "reps": reps.astype(np.int64),
        "num_classes": len(reps),
    }
    if table is not None:
        # a row is phi-fixed when its value on class(phi(rep_j)) is its value on j
        index = table.index
        moved = table.class_data.class_of[phi[table.class_data.reps]]
        fixed = np.flatnonzero((index[:, moved] == index).all(axis=1)).tolist()
        report["num_fixed_characters"] = len(fixed)
        report["fixed_rows"] = fixed
        report["counts_match"] = len(fixed) == len(reps)
    return report

