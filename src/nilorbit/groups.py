"""Black-box finite groups: elements are indices, multiplication an oracle.

Conjugacy classes, center, derived subgroup, subgroup closure, quotients,
induced characters, the abelian little-groups method, and twisted (phi-)
conjugacy all live here.  Group sizes stay small (<= ~20000); bulk hooks
let callers vectorize the inner loops with numpy when they can.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cyclo import Cyclotomic, from_ints, lincomb, times, to_ints


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

    def centralizer_order(self, j):
        return self.n // int(self.sizes[j])

    def same_as(self, other):
        return (
            self.n == other.n
            and len(self.reps) == len(other.reps)
            and (self.class_of == other.class_of).all()
        )


class FiniteGroup:
    """A finite group given by a multiplication oracle on [0, n)."""

    def __init__(
        self,
        n,
        mult,
        inv=None,
        identity=0,
        gens=None,
        mult_bulk=None,
        inv_bulk=None,
        classes_hook=None,
        name="",
    ):
        self.n = n
        self._mult = mult
        self._inv = inv
        self.identity = identity
        self.gens = list(gens) if gens is not None else None
        self._mult_bulk = mult_bulk
        self._inv_bulk = inv_bulk
        self._classes_hook = classes_hook
        self.name = name
        self._inv_cache = {}
        self._classes = None

    def __repr__(self):
        return "FiniteGroup(n=%d%s)" % (self.n, ", %s" % self.name if self.name else "")

    # -- oracle access -----------------------------------------------------

    def mult(self, i, j):
        return self._mult(i, j)

    def inv(self, i):
        if self._inv is not None:
            return self._inv(i)
        if i in self._inv_cache:
            return self._inv_cache[i]
        # brute scan; cached. Fine for the sizes this engine is for.
        for j in range(self.n):
            if self._mult(i, j) == self.identity:
                self._inv_cache[i] = j
                return j
        raise ValueError("element %d has no inverse (oracle broken)" % i)

    def mult_bulk(self, I, J):
        if self._mult_bulk is not None:
            return self._mult_bulk(I, J)
        I = np.asarray(I)
        J = np.asarray(J)
        out = np.empty(len(I), dtype=np.int64)
        for k in range(len(I)):
            out[k] = self._mult(int(I[k]), int(J[k]))
        return out

    def inv_bulk(self, I):
        if self._inv_bulk is not None:
            return self._inv_bulk(I)
        return np.array([self.inv(int(i)) for i in np.asarray(I)], dtype=np.int64)

    def conj(self, g, x):
        """g x g^-1."""
        return self._mult(self._mult(g, x), self.inv(g))

    def commutator(self, a, b):
        return self._mult(
            self._mult(a, b), self._mult(self.inv(a), self.inv(b))
        )

    def generators(self):
        if self.gens is not None:
            return self.gens
        self.gens = self.minimal_generators()
        return self.gens

    def minimal_generators(self):
        """A small generating set, greedily: adjoin the least element
        outside the closure so far, then re-close under right products."""
        gens = []
        closure = {self.identity}
        while len(closure) < self.n:
            nxt = next(x for x in range(self.n) if x not in closure)
            gens.append(nxt)
            frontier = list(closure)
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = self._mult(x, g)
                    if y not in closure:
                        closure.add(y)
                        frontier.append(y)
        return gens

    # -- axioms (spot check) -------------------------------------------------

    def spot_check_axioms(self, seed=0, triples=200):
        """Identity/inverses exhaustively; associativity on random triples."""
        for i in range(self.n):
            if self._mult(self.identity, i) != i or self._mult(i, self.identity) != i:
                raise AssertionError("identity axiom fails at %d" % i)
        rng = np.random.default_rng(seed)
        for i in range(self.n):
            j = self.inv(i)
            if self._mult(i, j) != self.identity:
                raise AssertionError("inverse axiom fails at %d" % i)
        for _ in range(triples):
            a, b, c = (int(x) for x in rng.integers(0, self.n, 3))
            if self._mult(self._mult(a, b), c) != self._mult(a, self._mult(b, c)):
                raise AssertionError("associativity fails at (%d,%d,%d)" % (a, b, c))
        return True

    # -- conjugacy classes ------------------------------------------------------

    def conjugacy_classes(self):
        if self._classes is not None:
            return self._classes
        if self._classes_hook is not None:
            self._classes = self._classes_hook()
            return self._classes
        gens = self.generators()
        gen_invs = [self.inv(g) for g in gens]
        class_of = np.full(self.n, -1, dtype=np.int64)
        reps = []
        for seed in range(self.n):
            if class_of[seed] >= 0:
                continue
            cid = len(reps)
            reps.append(seed)
            class_of[seed] = cid
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                for g, gi in zip(gens, gen_invs):
                    y = self._mult(self._mult(g, x), gi)
                    if class_of[y] < 0:
                        class_of[y] = cid
                        frontier.append(y)
        reps = np.array(reps, dtype=np.int64)
        sizes = np.bincount(class_of, minlength=len(reps))
        inv_class = np.array(
            [class_of[self.inv(int(r))] for r in reps], dtype=np.int64
        )
        self._classes = ClassData(
            self.n, class_of, reps, sizes, inv_class, int(class_of[self.identity])
        )
        return self._classes

    def element_order(self, i):
        k = 1
        x = i
        while x != self.identity:
            x = self._mult(x, i)
            k += 1
        return k

    def exponent(self):
        cd = self.conjugacy_classes()
        out = 1
        for r in cd.reps:
            out = math.lcm(out, self.element_order(int(r)))
        return out

    def power_classes(self, e):
        """pm[j][s] = class of rep_j^s for 0 <= s < e."""
        cd = self.conjugacy_classes()
        pm = np.zeros((cd.num_classes, e), dtype=np.int64)
        for j, r in enumerate(cd.reps):
            x = self.identity
            for s in range(e):
                pm[j, s] = cd.class_of[x]
                x = self._mult(x, int(r))
        return pm

    # -- subgroups ---------------------------------------------------------------

    def normal_closure(self, seeds):
        gens = self.generators()
        gen_invs = [self.inv(g) for g in gens]
        seen = {self.identity}
        frontier = [s for s in seeds if s != self.identity]
        seen.update(frontier)
        members = list(seen)
        while frontier:
            x = frontier.pop()
            candidates = [self._mult(self._mult(g, x), gi) for g, gi in zip(gens, gen_invs)]
            candidates.extend(self._mult(x, m) for m in list(members))
            candidates.append(self.inv(x))
            for y in candidates:
                if y not in seen:
                    seen.add(y)
                    members.append(y)
                    frontier.append(y)
        # close under multiplication until stable
        stable = False
        while not stable:
            stable = True
            members_list = sorted(seen)
            for x in members_list:
                for y in members_list:
                    z = self._mult(x, y)
                    if z not in seen:
                        seen.add(z)
                        stable = False
        return np.array(sorted(seen), dtype=np.int64)

    def center(self):
        gens = self.generators()
        out = [
            x
            for x in range(self.n)
            if all(self._mult(x, g) == self._mult(g, x) for g in gens)
        ]
        return np.array(out, dtype=np.int64)

    def derived_subgroup(self):
        gens = self.generators()
        comms = {self.commutator(a, b) for a in gens for b in gens}
        return self.normal_closure(sorted(comms))

    def is_abelian(self):
        gens = self.generators()
        return all(
            self._mult(a, b) == self._mult(b, a) for a in gens for b in gens
        )

    def quotient(self, normal_elems):
        """Quotient by a normal subgroup; returns (group, coset_rep array)."""
        normal = np.asarray(normal_elems, dtype=np.int64)
        coset_rep = np.full(self.n, -1, dtype=np.int64)
        reps = []
        for x in range(self.n):
            if coset_rep[x] >= 0:
                continue
            coset = self.mult_bulk(np.full(len(normal), x, dtype=np.int64), normal)
            r = int(coset.min())
            coset_rep[coset] = r
            reps.append(r)
        reps = np.array(sorted(reps), dtype=np.int64)
        rep_index = {int(r): k for k, r in enumerate(reps)}

        def qmult(i, j):
            return rep_index[int(coset_rep[self._mult(int(reps[i]), int(reps[j]))])]

        q = FiniteGroup(
            len(reps),
            qmult,
            identity=rep_index[int(coset_rep[self.identity])],
            gens=sorted({rep_index[int(coset_rep[g])] for g in self.generators()}),
            name=self.name + "/N",
        )
        return q, coset_rep, reps


def build_group(mult, n, gens=None, inv=None, identity=0, spot_check=True, **kw):
    """Spec entry point: wrap an oracle, build caches, sanity-check axioms."""
    G = FiniteGroup(n, mult, inv=inv, identity=identity, gens=gens, **kw)
    if spot_check:
        G.spot_check_axioms()
    G.conjugacy_classes()
    return G


# -- induced characters ---------------------------------------------------------


def induce_character(G, subgroup_elems, chi_sub, class_data=None):
    """Induced class function Ind_H^G(chi) from values on a subgroup.

    chi_sub maps element index -> Cyclotomic (callable or dict).  Uses
    chi_ind(g) = |C_G(g)|/|H| * sum over class(g) meet H of chi values,
    which is the standard induced-character formula grouped by conjugates.
    """
    cd = class_data or G.conjugacy_classes()
    H = np.asarray(subgroup_elems, dtype=np.int64)
    lookup = chi_sub if callable(chi_sub) else (lambda x: chi_sub[x])
    elems = sorted(set(int(x) for x in H))
    C, M, s = to_ints([lookup(x) for x in elems])
    member = np.zeros((cd.num_classes, len(elems)), dtype=np.int64)
    member[cd.class_of[elems], np.arange(len(elems))] = 1
    centralizers = [[cd.centralizer_order(j)] for j in range(cd.num_classes)]
    values = from_ints(times(lincomb(member, C), centralizers), M, s / len(H))
    from .chartable import ClassFunction

    return ClassFunction(cd, tuple(values))


# -- abelian groups and the little-groups method --------------------------------


class AbelianGroup:
    """A finite abelian group presented as Z_{m1} x ... x Z_{mk}."""

    def __init__(self, moduli):
        self.moduli = tuple(int(m) for m in moduli)
        if any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be positive")
        self.order = math.prod(self.moduli)
        self.exponent = math.lcm(*self.moduli) if self.moduli else 1

    def elements(self):
        out = [()]
        for m in self.moduli:
            out = [t + (r,) for t in out for r in range(m)]
        return out

    def index(self, x):
        idx = 0
        for c, m in zip(reversed(x), reversed(self.moduli)):
            idx = idx * m + (c % m)
        return idx

    def from_index(self, idx):
        out = []
        for m in self.moduli:
            out.append(idx % m)
            idx //= m
        return tuple(out)

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x):
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def char_value(self, chi, x):
        """Value of the character indexed by chi (a dual tuple) at x."""
        e = self.exponent
        r = 0
        for c, a, m in zip(chi, x, self.moduli):
            r = (r + c * a * (e // m)) % e
        return Cyclotomic.zeta(e, r) if e > 1 else Cyclotomic.rational(1)

    def characters(self):
        return self.elements()


def semidirect_product(H, A, act):
    """H lt-semidirect A with act(h, a) the automorphism action of H on A.

    Elements are pairs (h, a) indexed as h_index * |A| + a_index, with
    (h1, a1) * (h2, a2) = (h1 h2, act(h2^-1, a1) + a2)  [so A is normal].
    """
    nA = A.order

    def pair_index(h, a):
        return H.index(h) * nA + A.index(a)

    def unpack(i):
        return H.from_index(i // nA), A.from_index(i % nA)

    def mult(i, j):
        h1, a1 = unpack(i)
        h2, a2 = unpack(j)
        return pair_index(H.add(h1, h2), A.add(act(H.neg(h2), a1), a2))

    def inv(i):
        h, a = unpack(i)
        hn = H.neg(h)
        return pair_index(hn, A.neg(act(h, a)))

    gens = []
    for k in range(len(H.moduli)):
        h = tuple(1 if t == k else 0 for t in range(len(H.moduli)))
        gens.append(pair_index(h, A.from_index(0)))
    for k in range(len(A.moduli)):
        a = tuple(1 if t == k else 0 for t in range(len(A.moduli)))
        gens.append(pair_index(H.from_index(0), a))

    G = FiniteGroup(
        H.order * nA,
        mult,
        inv=inv,
        identity=pair_index(H.from_index(0), A.from_index(0)),
        gens=gens,
        name="semidirect",
    )
    G.pair_index = pair_index
    G.unpack = unpack
    return G


def little_groups(H, A, act, verify_action=True):
    """Character table of H lt-semidirect A for finite abelian H, A.

    Enumerates H-orbits Omega on the character group A^*, stabilizers
    H^chi, and characters psi of H^chi; the irreducible for (Omega, psi) is
    Ind_{H^chi lt-semidirect A}^{G} (psi-tilde tensor chi-tilde).
    """
    from .chartable import CharacterTable, ClassFunction

    if verify_action:
        _check_action(H, A, act)
    G = semidirect_product(H, A, act)
    cd = G.conjugacy_classes()

    # H acts on A^* by (h . chi)(a) = chi(act(h^-1? , a)); with our normal-
    # subgroup convention conjugation by (h, 0) sends (1, a) to (1, act(h^-1, a)),
    # wait: (h,0)(1,a)(h,0)^-1 = (h, act(..)) -- compute via the group itself.
    hs = H.elements()
    chars = A.characters()
    char_index = {c: k for k, c in enumerate(chars)}

    def h_act_on_char(h, chi):
        # (h.chi)(a) = chi(a conjugated back): conjugation of (1,a) by (h,0)
        # in G sends a to act(h, a) [derived from the product rule], so
        # (h.chi)(a) = chi(act(neg h, a)).
        hn = H.neg(h)
        # represent the new character by evaluating on A's generators:
        out = []
        e = A.exponent
        for k, m in enumerate(A.moduli):
            a = tuple(1 if t == k else 0 for t in range(len(A.moduli)))
            b = act(hn, a)
            r = 0
            for c, bb, mm in zip(chi, b, A.moduli):
                r = (r + c * bb * (e // mm)) % e
            # r is the exponent of zeta_e; convert to dual coordinate mod m
            if (r * m) % e != 0:
                raise ArithmeticError("action does not permute characters")
            out.append((r * m // e) % m)
        return tuple(out)

    seen = set()
    rows = []
    for chi in chars:
        if chi in seen:
            continue
        orbit = {chi}
        frontier = [chi]
        while frontier:
            c0 = frontier.pop()
            for k in range(len(H.moduli)):
                h = tuple(1 if t == k else 0 for t in range(len(H.moduli)))
                c1 = h_act_on_char(h, c0)
                if c1 not in orbit:
                    orbit.add(c1)
                    frontier.append(c1)
        seen |= orbit
        stab = [h for h in hs if h_act_on_char(h, chi) == chi]
        # subgroup S = H^chi lt-semidirect A inside G
        S_elems = np.array(
            sorted(
                G.pair_index(h, a) for h in stab for a in A.elements()
            ),
            dtype=np.int64,
        )
        # characters of the abelian group H^chi: restrict characters of H
        # (H abelian: every character of a subgroup extends, and restriction
        # hits every character; deduplicate by values on stab)
        stab_chars = _subgroup_characters(H, stab)
        for psi_vals in stab_chars:
            def lam(idx, psi_vals=psi_vals, chi=chi):
                h, a = G.unpack(int(idx))
                return psi_vals[h] * A.char_value(chi, a)

            rows.append(induce_character(G, S_elems, lam, class_data=cd))
    table = CharacterTable(cd, rows)
    table.group = G
    return table


def _subgroup_characters(H, stab):
    """All characters of the subgroup `stab` of the abelian group H,
    as dicts element-tuple -> Cyclotomic."""
    e = H.exponent
    out = {}
    for chi in H.elements():
        key = tuple(
            _char_exponent(H, chi, h) for h in stab
        )
        if key not in out:
            out[key] = {
                h: (Cyclotomic.zeta(e, r) if e > 1 else Cyclotomic.rational(1))
                for h, r in zip(stab, key)
            }
    # a subgroup of an abelian group has exactly |stab| characters
    assert len(out) == len(stab), "character restriction miscount"
    return [out[k] for k in sorted(out)]


def _char_exponent(H, chi, x):
    e = H.exponent
    r = 0
    for c, a, m in zip(chi, x, H.moduli):
        r = (r + c * a * (e // m)) % e
    return r


def _check_action(H, A, act):
    zero_h = H.from_index(0)
    for a in A.elements():
        if act(zero_h, a) != a:
            raise ValueError("identity of H must act trivially")
    h_gens = [
        tuple(1 if t == k else 0 for t in range(len(H.moduli)))
        for k in range(len(H.moduli))
    ]
    a_elems = A.elements()
    for h in h_gens:
        for a in a_elems:
            for b in a_elems:
                if act(h, A.add(a, b)) != A.add(act(h, a), act(h, b)):
                    raise ValueError("action of %r is not additive" % (h,))
    for h1 in h_gens:
        for h2 in h_gens:
            for a in a_elems:
                if act(H.add(h1, h2), a) != act(h1, act(h2, a)):
                    raise ValueError("action is not a homomorphism in H")


# -- twisted conjugacy ------------------------------------------------------------


def twisted_classes(G, phi, table=None, reps_for_basis=None, seed=1):
    """phi-conjugacy classes and the twisted-trace basis.

    phi: permutation array on [0, n) (verified to be an automorphism).
    Returns a report dict; when `table` (a CharacterTable) is given, the
    count of phi-fixed rows is checked against the class count, and when
    monomial representations are supplied via reps_for_basis (a list of
    (row_index, MonomialRep)), the twisted traces are built and their rank
    verified.
    """
    phi = np.asarray(phi, dtype=np.int64)
    n = G.n
    for a in G.generators():
        for b in G.generators():
            if phi[G.mult(a, b)] != G.mult(int(phi[a]), int(phi[b])):
                raise ValueError("phi is not an automorphism")
    if phi[G.identity] != G.identity:
        raise ValueError("phi is not an automorphism (identity moves)")

    gens = G.generators()
    gen_invs = [G.inv(g) for g in gens]
    labels = np.full(n, -1, dtype=np.int64)
    reps = []
    for seed_pt in range(n):
        if labels[seed_pt] >= 0:
            continue
        cid = len(reps)
        reps.append(seed_pt)
        labels[seed_pt] = cid
        frontier = [seed_pt]
        while frontier:
            x = frontier.pop()
            for g, gi in zip(gens, gen_invs):
                y = G.mult(G.mult(int(phi[g]), x), gi)
                if labels[y] < 0:
                    labels[y] = cid
                    frontier.append(y)
    report = {
        "labels": labels,
        "reps": np.array(reps, dtype=np.int64),
        "num_classes": len(reps),
    }
    if table is not None:
        fixed = [i for i, row in enumerate(table.rows) if _phi_fixed(row, phi, table)]
        report["num_fixed_characters"] = len(fixed)
        report["fixed_rows"] = fixed
        report["counts_match"] = len(fixed) == len(reps)
    return report


def _phi_fixed(row, phi, table):
    cd = table.class_data
    for j, r in enumerate(cd.reps):
        if row.values[cd.class_of[int(phi[int(r)])]] != row.values[j]:
            return False
    return True
