"""Heisenberg representations and the reduction process.

A Heisenberg representation is an irreducible rho whose image modulo
scalars is abelian.  heisenberg_classify enumerates them as pairs
(nu, nu~): a Gamma-invariant character nu of [Gamma, Gamma] and an
extension nu~ to the preimage C of the center of Gamma/ker nu; the
representation is induced from any Lagrangian lift and is independent of
that choice.  reduce_to_heisenberg descends an arbitrary irreducible
character through stabilizers until it becomes Heisenberg and re-induces
to check the chain.

Both routines assume the relevant abelian sections have prime exponent p,
which covers every group this package builds (exponent-p Lazard groups and
their subquotients).
"""

import math

import numpy as np

from . import linalg, polar
from .chartable import ClassFunction
from .cyclo import Cyclotomic, from_ints, lincomb, product_table
from .groups import induce_character


class ElementaryCoords:
    """F_p-coordinates on an elementary abelian subgroup given by elements."""

    def __init__(self, G, elems, p):
        self.G = G
        self.p = p
        self.elems = np.asarray(sorted(int(x) for x in elems), dtype=np.int64)
        coords = {G.identity: ()}
        basis = []
        for a in self.elems:
            a = int(a)
            if a in coords:
                continue
            if G.element_orders([a])[0] != p:
                raise ValueError("subgroup is not of prime exponent %d" % p)
            k = len(basis)
            basis.append(a)
            # powers[j - 1][i] = e_i a^j for every current element e_i
            cur = np.fromiter(coords, dtype=np.int64, count=len(coords))
            powers = []
            for _ in range(1, p):
                cur = G.mult_bulk(cur, np.full(len(cur), a, dtype=np.int64))
                powers.append(cur.tolist())
            new = {}
            for i, c in enumerate(coords.values()):
                for j in range(1, p):
                    new[powers[j - 1][i]] = c + (j,)
            for e, c in new.items():
                if e in coords:
                    raise ValueError("subgroup is not abelian of exponent p")
                coords[e] = c
            for e in list(coords):
                coords[e] = coords[e] + (0,) * (k + 1 - len(coords[e]))
        self.rank = len(basis)
        self.basis = basis
        self.coords = {
            e: tuple(c) + (0,) * (self.rank - len(c)) for e, c in coords.items()
        }
        if len(self.coords) != len(self.elems):
            raise ValueError("element set is not a subgroup")

    def coord_vector(self, e):
        return self.coords[int(e)]

    def dual_vectors(self):
        return linalg.all_vectors(self.rank, self.p)


class AbCharacters:
    """Characters of a subgroup that kill its derived subgroup.

    Works through the abelianization of the subgroup (which must have
    prime exponent p): characters are dual vectors in the abelianized
    coordinates, evaluated on parent-group elements.
    """

    def __init__(self, G, elems, p):
        self.G = G
        self.p = p
        self.H = G.subgroup(elems)
        D = self.H.derived_subgroup()
        self.Q, self.coset_rep, self.qreps = self.H.quotient(D)
        self.qcoords = ElementaryCoords(self.Q, np.arange(self.Q.n), p)
        self.rank = self.qcoords.rank

    def residue(self, mu, parent_element):
        h = _pos(self.H, parent_element)
        q = int(np.searchsorted(self.qreps, self.coset_rep[h]))
        return int(np.dot(mu, self.qcoords.coord_vector(q))) % self.p

    def value(self, mu, parent_element, psi_k=1):
        r = (psi_k * self.residue(mu, parent_element)) % self.p
        return Cyclotomic.zeta(self.p, r)

    def dual_vectors(self):
        return linalg.all_vectors(self.rank, self.p)

    def extensions(self, sub_elems, target):
        """All duals mu with residue(mu, e) == target[e] for e in sub_elems."""
        rows = []
        rhs = []
        for e in sub_elems:
            h = _pos(self.H, e)
            q = int(np.searchsorted(self.qreps, self.coset_rep[h]))
            rows.append(list(self.qcoords.coord_vector(q)))
            rhs.append(target[int(e)] % self.p)
        if not rows:
            return [tuple(v) for v in self.dual_vectors()]
        part = linalg.solve(np.array(rows, dtype=np.int64), np.array(rhs, dtype=np.int64), self.p)
        if part is None:
            return []
        K = linalg.kernel(np.array(rows, dtype=np.int64), self.p)
        out = []
        if K.shape[0] == 0:
            return [tuple(int(v) for v in part)]
        for coeffs in linalg.all_vectors(K.shape[0], self.p):
            out.append(tuple(int(v) for v in (part + coeffs @ K) % self.p))
        return sorted(set(out))


def _scalar_classes(chi, cd):
    """Classes on which the representation acts by scalars:
    chi(g) conj(chi(g)) = chi(1)^2."""
    d2 = chi.degree * chi.degree
    out = []
    for j in range(cd.num_classes):
        v = chi.values[j]
        if v * v.conj() == d2:
            out.append(j)
    return out


def is_heisenberg_character(G, chi, cd=None):
    """True iff Gamma/N is abelian for N = scalar-acting elements."""
    cd = cd or G.conjugacy_classes()
    scal = set(_scalar_classes(chi, cd))
    N = np.nonzero(np.isin(cd.class_of, list(scal)))[0]
    Q, coset_rep, reps = G.quotient(N)
    return Q.is_abelian()


def heisenberg_classify(G, p, psi_k=1, cd=None, flag_perm=None):
    """All Heisenberg representations of G as (nu, nu_tilde, ClassFunction).

    nu ranges over Gamma-invariant characters of [Gamma, Gamma] and
    nu_tilde over its extensions to the preimage C of the center of
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
        comms = G.commutator_bulk(np.repeat(gens, len(DC.basis)), np.tile(DC.basis, len(gens)))
        coords = np.array([DC.coord_vector(c) for c in comms], dtype=np.int64)
        duals = DC.dual_vectors()
        invariant_nus = list(duals[~((duals @ coords.T) % p).any(axis=1)])
    for mu in invariant_nus:
        if mu is None or not np.asarray(mu).any():
            ker = D
        else:
            ker = np.array(
                [e for e in D if np.dot(mu, DC.coord_vector(e)) % p == 0],
                dtype=np.int64,
            )
        Q, coset_rep, qreps = G.quotient(ker)
        Zq = Q.center()
        C = np.nonzero(
            np.isin(coset_rep, [int(qreps[z]) for z in Zq])
        )[0].astype(np.int64)
        CC = AbCharacters(G, C, p)
        # nu~ ranges over characters of C restricting to nu on D
        target = {}
        for e in D:
            r = 0 if mu is None else int(np.dot(mu, DC.coord_vector(e))) % p
            target[int(e)] = r
        for lam in CC.extensions(D, target):
            chi = _heisenberg_character(
                G, cd, C, CC, lam, p, psi_k, flag_perm=flag_perm
            )
            out.append(
                (
                    None if mu is None else tuple(int(x) for x in mu),
                    tuple(int(x) for x in lam),
                    chi,
                )
            )
    return out


def _heisenberg_character(G, cd, C, CC, lam, p, psi_k, flag_perm=None):
    """Induce nu~ (given by dual vector lam on C) through a Lagrangian.

    flag_perm permutes the flag basis fed to the good-basis construction;
    different permutations generally select different Lagrangians, and the
    resulting character must not depend on the choice.
    """
    # coordinates on G/C: use the quotient group
    Q, coset_rep, qreps = G.quotient(C)
    qcoords = ElementaryCoords(Q, np.arange(Q.n), p)
    k = qcoords.rank
    lifts = qreps[qcoords.basis]
    comms = G.commutator_bulk(np.repeat(lifts, k), np.tile(lifts, k))
    B = np.array([CC.residue(lam, c) for c in comms], dtype=np.int64).reshape(k, k)
    if ((B + B.T) % p).any() or B.diagonal().any():
        raise AssertionError("commutator pairing is not alternating (bug)")
    if linalg.rank(B, p) != k:
        raise AssertionError("commutator pairing is degenerate (bug)")
    flag_rows = None
    if flag_perm is not None and sorted(flag_perm) == list(range(k)):
        flag_rows = np.eye(k, dtype=np.int64)[list(flag_perm)]
    _, sigma, L_rows = polar.good_basis_and_involution(B, p, flag_rows=flag_rows)
    # lift the Lagrangian rows to subgroup elements of G
    Ltilde = _lift_subgroup(G, Q, qreps, coset_rep, qcoords, L_rows, p)
    # extend nu~ to a character f of Ltilde (through its abelianization)
    LC = AbCharacters(G, Ltilde, p)
    target = {int(e): CC.residue(lam, int(e)) for e in C}
    fs = LC.extensions(C, target)
    if not fs:
        raise AssertionError("character extension to the Lagrangian failed (bug)")
    f_vec = fs[0]
    chi = induce_character(
        G,
        Ltilde,
        lambda e: LC.value(f_vec, int(e), psi_k),
        class_data=cd,
    )
    expected_deg = math.isqrt(G.n // len(C))
    if chi.degree != Cyclotomic.rational(expected_deg):
        raise AssertionError("Heisenberg degree != sqrt([G : C]) (bug)")
    return chi


def _lift_subgroup(G, Q, qreps, coset_rep, qcoords, L_rows, p):
    """Preimage in G of the subgroup of Q spanned by L_rows (coordinates)."""
    # enumerate quotient elements whose coordinates lie in the row space
    if len(L_rows) == 0:
        members_q = {Q.identity}
    else:
        R, _ = linalg.rref(np.asarray(L_rows, dtype=np.int64) % p, p)
        V = np.array([qcoords.coord_vector(e) for e in range(Q.n)], dtype=np.int64)
        members_q = set(np.flatnonzero(~linalg.reduce_by(R, V, p).any(axis=1)).tolist())
    member_reps = {int(qreps[e]) for e in members_q}
    out = [x for x in range(G.n) if int(coset_rep[x]) in member_reps]
    return np.array(sorted(out), dtype=np.int64)


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
        scal = _scalar_classes(cur_chi, cur_cd)
        N = np.nonzero(np.isin(cur_cd.class_of, scal))[0].astype(np.int64)
        Q, coset_rep, qreps = cur_G.quotient(N)
        Zq = Q.center()
        # pairing on Z(Q): nu([z, z']) with nu the scalar character on N
        Z_lift = qreps[Zq]
        # degenerate part Z0 = {z in Z : chi([z, z']) = chi(1) for all z'}
        at_degree = np.array([v == cur_chi.degree for v in cur_chi.values])
        comms = cur_G.commutator_bulk(np.repeat(Z_lift, len(Z_lift)), np.tile(Z_lift, len(Z_lift)))
        trivial = at_degree[cur_cd.class_of[comms]].reshape(len(Z_lift), len(Z_lift))
        zreps = {int(coset_rep[z]) for z in Z_lift[trivial.all(axis=1)]}
        A = np.nonzero(np.isin(coset_rep, sorted(zreps)))[0].astype(np.int64)
        if len(A) == len(N):
            break  # rho(A) scalar: Heisenberg stage reached
        AC = ElementaryCoords(cur_G, A, p)
        chi1 = _canonical_constituent(cur_cd, cur_chi, AC, p, psi_k)
        stab = _character_stabilizer(cur_G, AC, chi1, p)
        H = cur_G.subgroup(stab)
        hcd = H.conjugacy_classes()
        chi_next = _constituent_over(cur_G, cur_cd, cur_chi, H, hcd, AC, chi1, p, psi_k)
        # verify: re-induction reproduces chi
        chi_back = induce_character(
            cur_G,
            stab,
            lambda e: chi_next.values[hcd.class_of[_pos(H, e)]],
            class_data=cur_cd,
        )
        if chi_back != cur_chi:
            raise AssertionError("re-induction failed to reproduce chi (bug)")
        chain.append((cur_elems[stab] if cur_elems is not None else stab, chi_next))
        cur_elems = cur_elems[stab]
        cur_G, cur_cd, cur_chi = H, hcd, chi_next
    return chain, (cur_G, cur_cd, cur_chi)


def _pos(H, e):
    return int(np.searchsorted(H.members, int(e)))


def _residue_table(chi, p):
    """(P, M, den): row j * p + r of P / den is chi_j * zeta_p^(-r) in integer form."""
    P, M, den = product_table(chi.values, [Cyclotomic.zeta(p, -r) for r in range(p)])
    return P.reshape(-1, P.shape[-1]), M, den


def _canonical_constituent(cd, chi, AC, p, psi_k):
    """The lex-least character of A with nonzero multiplicity in Res_A chi."""
    elems = AC.elems
    coords = np.array([AC.coord_vector(int(e)) for e in elems], dtype=np.int64)
    P, _, _ = _residue_table(chi, p)
    key = cd.class_of[elems] * p
    for mu in AC.dual_vectors():
        counts = np.bincount(key + (psi_k * (coords @ mu)) % p, minlength=cd.num_classes * p)
        if lincomb(counts, P).any():
            return mu
    raise AssertionError("restriction has no constituent (bug)")


def _character_stabilizer(G, AC, mu, p):
    """{g : chi1(g^-1 a g) = chi1(a) for a in A}, as sorted indices."""
    n = G.n
    keep = np.ones(n, dtype=bool)
    all_idx = np.arange(n, dtype=np.int64)
    inv_all = G.inv_bulk(all_idx)
    for a in AC.basis:
        conj = G.mult_bulk(G.mult_bulk(inv_all, np.full(n, int(a), dtype=np.int64)), all_idx)
        target = int(np.dot(mu, AC.coord_vector(int(a)))) % p
        vals = np.array(
            [int(np.dot(mu, AC.coord_vector(int(c)))) % p if int(c) in AC.coords else -1 for c in conj],
            dtype=np.int64,
        )
        keep &= vals == target
    return np.nonzero(keep)[0].astype(np.int64)


def _constituent_over(G, cd, chi, H, hcd, AC, mu, p, psi_k):
    """chi' on the stabilizer H: chi'(g) = |A|^-1 sum_a chi(g a) chi1(a)^-1."""
    elems = AC.elems
    coords = np.array([AC.coord_vector(int(e)) for e in elems], dtype=np.int64)
    res = (psi_k * (coords @ mu)) % p
    P, M, den = _residue_table(chi, p)
    counts = []
    for r_idx in hcd.reps:
        g = int(H.members[int(r_idx)])
        prods = G.mult_bulk(np.full(len(elems), g, dtype=np.int64), elems)
        counts.append(np.bincount(cd.class_of[prods] * p + res, minlength=cd.num_classes * p))
    values = from_ints(lincomb(np.array(counts), P), M, den * len(elems))
    return ClassFunction(hcd, tuple(values))
