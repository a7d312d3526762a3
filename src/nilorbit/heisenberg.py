"""Heisenberg representations and the reduction process.

A Heisenberg representation is an irreducible rho whose image modulo
scalars is abelian.  heisenberg_classify enumerates them as pairs
(nu, nu~): a Gamma-invariant character nu of [Gamma, Gamma] and an
extension nu~ to the inverse image C of the center of Gamma/ker nu; the
representation is induced from any Lagrangian lift and is independent of
that choice.  reduce_to_heisenberg descends an arbitrary irreducible
character through stabilizers until it becomes Heisenberg and re-induces
to check the chain.

Both routines assume the relevant abelian sections have prime exponent p,
which covers every group this package builds (exponent-p Lazard groups and
their subquotients).  Everything runs on index and coordinate arrays: an
elementary abelian subgroup is its sorted elements with one row of F_p
coordinates each, a character of it a dual vector and its values on
elements one gather and product.  Each induction is one call of
groups.induce_character: a Heisenberg character is keyed by zeta_p
exponents on the Lagrangian lift, the re-induction check of the descent by
the classes of the stabilizer.
"""

import math

import numpy as np

from . import linalg, polar
from .chartable import ClassFunction
from .cyclo import Cyclotomic, contract, from_ints, gather, lincomb, product_table, to_ints
from .groups import induce_character


class ElementaryCoords:
    """F_p-coordinates on an elementary abelian subgroup given by elements.

    elems are the sorted elements and coords[i] the coordinates of
    elems[i] against basis: each basis element is the least element outside
    the span of those before it, and the span grows by right products with
    its powers, one bulk call per power.
    """

    def __init__(self, G, elems, p):
        self.p = p
        self.elems = np.sort(np.asarray(elems, dtype=np.int64))
        spanned = np.zeros(G.n, dtype=bool)
        spanned[G.identity] = True
        span = np.array([G.identity], dtype=np.int64)
        coords = np.zeros((1, 0), dtype=np.int64)
        basis = []
        while True:
            outside = ~spanned[self.elems]
            if not outside.any():
                break
            a = self.elems[np.argmax(outside)]
            if G.element_orders([a])[0] != p:
                raise ValueError("subgroup is not of prime exponent %d" % p)
            basis.append(a)
            powers = [span]
            for _ in range(1, p):
                powers.append(G.mult_bulk(powers[-1], np.full(len(span), a, dtype=np.int64)))
            new = np.concatenate(powers[1:])
            # s a^j = s' a^l with j != l puts s' a^(l-j) = s in the span
            # already, so new elements repeat only if one meets the span
            if spanned[new].any():
                raise ValueError("subgroup is not abelian of exponent p")
            spanned[new] = True
            span = np.concatenate(powers)
            j = np.repeat(np.arange(p, dtype=np.int64), len(coords))
            coords = np.hstack([np.tile(coords, (p, 1)), j[:, None]])
        if len(span) != len(self.elems):
            raise ValueError("element set is not a subgroup")
        self.basis = np.array(basis, dtype=np.int64)
        self.rank = len(basis)
        self.coords = coords[np.argsort(span)]

    def positions(self, X):
        """Index into elems of each element of X, which must lie in it."""
        pos = np.minimum(np.searchsorted(self.elems, X), len(self.elems) - 1)
        if (self.elems[pos] != X).any():
            raise ValueError("element outside the subgroup")
        return pos

    def dual_vectors(self):
        return linalg.all_vectors(self.rank, self.p)


class AbCharacters:
    """Characters of a subgroup that kill its derived subgroup.

    Works through the abelianization of the subgroup (which must have
    prime exponent p): characters are dual vectors in the abelianized
    coordinates, coords[k] those of the k-th member of the subgroup.
    """

    def __init__(self, G, elems, p):
        self.p = p
        self.H = G.subgroup(elems)
        Q, coset_rep, qreps = self.H.quotient(self.H.derived_subgroup())
        # Q's elements are its coset reps' positions, so its coordinates
        # are rows of one gather
        self.coords = ElementaryCoords(Q, np.arange(Q.n), p).coords[
            np.searchsorted(qreps, coset_rep)
        ]

    def exponents(self, mu, elems):
        """r with mu(e) = zeta_p^r at each parent-group element e of elems."""
        pos = np.searchsorted(self.H.members, elems)
        return (self.coords[pos] @ np.asarray(mu, dtype=np.int64)) % self.p

    def extensions(self, sub_elems, targets):
        """All duals mu, as sorted tuples, with exponents(mu, sub_elems)
        equal to targets mod p."""
        rows = self.coords[np.searchsorted(self.H.members, sub_elems)]
        part = linalg.solve(rows, targets, self.p)
        if part is None:
            return []
        K = linalg.kernel(rows, self.p)
        mus = (part + linalg.all_vectors(K.shape[0], self.p) @ K) % self.p
        return sorted(set(map(tuple, mus.tolist())))


def _scalar_classes(chi, cd):
    """Classes on which the representation acts by scalars:
    chi(g) conj(chi(g)) = chi(1)^2, one contraction of the values' integer
    forms against their conjugates (zeta^k -> zeta^-k).  On the identity
    class the product is deg^2 den^2 at zeta^0."""
    C, M, _ = to_ints(chi.values)
    conj = gather(C, -np.arange(C.shape[1]), M)
    norms = contract(C[:, None, None], conj[:, None, None], M)[:, 0, 0]
    return np.flatnonzero((norms == norms[cd.identity_class]).all(axis=1))


def is_heisenberg_character(G, chi, cd=None):
    """True iff Gamma/N is abelian for N = scalar-acting elements."""
    cd = cd or G.conjugacy_classes()
    N = np.flatnonzero(np.isin(cd.class_of, _scalar_classes(chi, cd)))
    Q, coset_rep, reps = G.quotient(N)
    return Q.is_abelian()


def heisenberg_classify(G, p, psi_k=1, cd=None, flag_perm=None):
    """All Heisenberg representations of G as (nu, nu_tilde, ClassFunction).

    nu ranges over Gamma-invariant characters of [Gamma, Gamma] and
    nu_tilde over its extensions to the inverse image C of the center of
    Gamma/ker nu; the character is Ind from a Lagrangian lift.  Passing a
    flag_perm changes which Lagrangian the good-basis construction picks,
    which must not change any character (Lagrangian independence).
    """
    cd = cd or G.conjugacy_classes()
    D = G.derived_subgroup()
    DC = ElementaryCoords(G, D, p) if len(D) > 1 else None
    out = []
    gens = G.generators()
    if DC is None:
        invariant_nus = [None]
    else:
        # nu(g a g^-1) - nu(a) = nu([g, a]) on the elementary abelian D
        comms = G.commutator_bulk(np.repeat(gens, DC.rank), np.tile(DC.basis, len(gens)))
        coords = DC.coords[DC.positions(comms)]
        duals = DC.dual_vectors()
        invariant_nus = list(duals[~((duals @ coords.T) % p).any(axis=1)])
    for mu in invariant_nus:
        # nu on D (sorted, as DC.elems) as zeta_p exponents
        target = np.zeros(len(D), dtype=np.int64) if mu is None else (DC.coords @ mu) % p
        Q, coset_rep, qreps = G.quotient(D[target == 0])
        C = np.flatnonzero(np.isin(coset_rep, qreps[Q.center()]))
        CC = AbCharacters(G, C, p)
        quotient = _quotient_coords(G, C, p)
        # nu~ ranges over characters of C restricting to nu on D
        for lam in CC.extensions(D, target):
            chi = _heisenberg_character(G, cd, C, CC, quotient, lam, p, psi_k, flag_perm=flag_perm)
            out.append((None if mu is None else tuple(int(x) for x in mu), lam, chi))
    return out


def _quotient_coords(G, C, p):
    """What G/C gives every extension on C: its coordinates (qcoords), the
    quotient element of each element of G (labels) and the commutators
    [l_a, l_b] of the lifts of its basis, row-major."""
    Q, coset_rep, qreps = G.quotient(C)
    qcoords = ElementaryCoords(Q, np.arange(Q.n), p)
    k = qcoords.rank
    lifts = qreps[qcoords.basis]
    comms = G.commutator_bulk(np.repeat(lifts, k), np.tile(lifts, k))
    return qcoords, np.searchsorted(qreps, coset_rep), comms


def _heisenberg_character(G, cd, C, CC, quotient, lam, p, psi_k, flag_perm=None):
    """Induce nu~ (given by dual vector lam on C) through a Lagrangian;
    quotient is _quotient_coords(G, C, p).

    flag_perm permutes the flag basis fed to the good-basis construction;
    different permutations generally select different Lagrangians, and the
    resulting character must not depend on the choice.
    """
    qcoords, labels, comms = quotient
    k = qcoords.rank
    B = CC.exponents(lam, comms).reshape(k, k)
    if ((B + B.T) % p).any() or B.diagonal().any():
        raise AssertionError("commutator pairing is not alternating (bug)")
    if linalg.rank(B, p) != k:
        raise AssertionError("commutator pairing is degenerate (bug)")
    flag_rows = None
    if flag_perm is not None and sorted(flag_perm) == list(range(k)):
        flag_rows = np.eye(k, dtype=np.int64)[list(flag_perm)]
    _, sigma, L_rows = polar.good_basis_and_involution(B, p, flag_rows=flag_rows)
    Ltilde = _lift_subgroup(qcoords, labels, L_rows, p)
    # extend nu~ to a character f of Ltilde (through its abelianization)
    LC = AbCharacters(G, Ltilde, p)
    fs = LC.extensions(C, CC.exponents(lam, C))
    if not fs:
        raise AssertionError("character extension to the Lagrangian failed (bug)")
    keys = (psi_k * LC.exponents(fs[0], Ltilde)) % p
    chi = induce_character(cd, Ltilde, keys, [Cyclotomic.zeta(p, r) for r in range(p)])
    expected_deg = math.isqrt(G.n // len(C))
    if chi.degree != Cyclotomic.rational(expected_deg):
        raise AssertionError("Heisenberg degree != sqrt([G : C]) (bug)")
    return chi


def _lift_subgroup(qcoords, labels, L_rows, p):
    """Preimage in G of the subgroup of the quotient spanned by L_rows
    (coordinates), with labels[x] the quotient element of x in G."""
    V = qcoords.coords
    if len(L_rows):
        V = linalg.reduce_by(linalg.rref(L_rows, p)[0], V, p)
    # x lifts a member when its coset's coordinates lie in the row space
    return np.flatnonzero(~V.any(axis=1)[labels])


# -- reduction process ----------------------------------------------------------


def reduce_to_heisenberg(G, chi, p, psi_k=1, cd=None):
    """Canonical descent of an irreducible chi to a Heisenberg character.

    Returns (chain, terminal) where chain is a list of (subgroup_elements,
    ClassFunction) from G down to the terminal Heisenberg stage, and
    re-induction along the chain reproduces chi at every level (verified).
    """
    cd = cd or G.conjugacy_classes()
    if chi.inner(chi) != Cyclotomic.rational(1):
        raise ValueError("chi is not irreducible")
    chain = []
    cur_G, cur_cd, cur_chi = G, cd, chi
    cur_elems = np.arange(G.n, dtype=np.int64)
    while True:
        N = np.flatnonzero(np.isin(cur_cd.class_of, _scalar_classes(cur_chi, cur_cd)))
        Q, coset_rep, qreps = cur_G.quotient(N)
        # pairing on Z(Q): nu([z, z']) with nu the scalar character on N
        Z_lift = qreps[Q.center()]
        # degenerate part Z0 = {z in Z : chi([z, z']) = chi(1) for all z'}
        at_degree = np.array([v == cur_chi.degree for v in cur_chi.values])
        comms = cur_G.commutator_bulk(np.repeat(Z_lift, len(Z_lift)), np.tile(Z_lift, len(Z_lift)))
        trivial = at_degree[cur_cd.class_of[comms]].reshape(len(Z_lift), len(Z_lift))
        A = np.flatnonzero(np.isin(coset_rep, coset_rep[Z_lift[trivial.all(axis=1)]]))
        if len(A) == len(N):
            break  # rho(A) scalar: Heisenberg stage reached
        AC = ElementaryCoords(cur_G, A, p)
        chi1 = _canonical_constituent(cur_cd, cur_chi, AC, p, psi_k)
        stab = _character_stabilizer(cur_G, AC, chi1, p)
        H = cur_G.subgroup(stab)
        hcd = H.conjugacy_classes()
        chi_next = _constituent_over(cur_G, cur_cd, cur_chi, H, hcd, AC, chi1, p, psi_k)
        # verify: re-induction reproduces chi (stab is H.members, in order)
        if induce_character(cur_cd, stab, hcd.class_of, chi_next.values) != cur_chi:
            raise AssertionError("re-induction failed to reproduce chi (bug)")
        cur_elems = cur_elems[stab]
        chain.append((cur_elems, chi_next))
        cur_G, cur_cd, cur_chi = H, hcd, chi_next
    return chain, (cur_G, cur_cd, cur_chi)


def _residue_table(chi, p):
    """(P, M, den): row j * p + r of P / den is chi_j * zeta_p^(-r) in integer form."""
    P, M, den = product_table(chi.values, [Cyclotomic.zeta(p, -r) for r in range(p)])
    return P.reshape(-1, P.shape[-1]), M, den


def _canonical_constituent(cd, chi, AC, p, psi_k):
    """The lex-least character of A with nonzero multiplicity in Res_A chi."""
    P, _, _ = _residue_table(chi, p)
    key = cd.class_of[AC.elems] * p
    for mu in AC.dual_vectors():
        counts = np.bincount(key + (psi_k * (AC.coords @ mu)) % p, minlength=cd.num_classes * p)
        if lincomb(counts, P).any():
            return mu
    raise AssertionError("restriction has no constituent (bug)")


def _character_stabilizer(G, AC, mu, p):
    """{g : chi1(g^-1 a g) = chi1(a) for a in A}, as sorted indices; A is
    normal, so every conjugate has coordinates."""
    everything = np.arange(G.n, dtype=np.int64)
    inverses = G.inv_bulk(everything)
    values = (AC.coords @ mu) % p
    keep = np.ones(G.n, dtype=bool)
    for a, target in zip(AC.basis, values[AC.positions(AC.basis)]):
        conj = G.mult_bulk(G.mult_bulk(inverses, np.full(G.n, a, dtype=np.int64)), everything)
        keep &= values[AC.positions(conj)] == target
    return np.flatnonzero(keep)


def _constituent_over(G, cd, chi, H, hcd, AC, mu, p, psi_k):
    """chi' on the stabilizer H: chi'(g) = |A|^-1 sum_a chi(g a) chi1(a)^-1,
    with the products g a for every class rep g of H in one bulk call."""
    n_a, t, k = len(AC.elems), cd.num_classes, hcd.num_classes
    res = (psi_k * (AC.coords @ mu)) % p
    prods = G.mult_bulk(np.repeat(H.members[hcd.reps], n_a), np.tile(AC.elems, k))
    keys = (np.repeat(np.arange(k) * t, n_a) + cd.class_of[prods]) * p + np.tile(res, k)
    counts = np.bincount(keys, minlength=k * t * p).reshape(k, t * p)
    P, M, den = _residue_table(chi, p)
    return ClassFunction(hcd, tuple(from_ints(lincomb(counts, P), M, den * n_a)))
