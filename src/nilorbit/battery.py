"""The counterexample battery: the statements that fail beyond class 2.

Witness rings:
  * dim-4 ring [x,y] = z, [x,z] = t  (refutes: induced-from-stabilizer is a
    multiple of rho_Omega; every isotropic subring extends to a
    polarization);
  * c x| a with dim a = 3 and ad v generic nilpotent (class 3: the
    transform of a one-sided ideal fails to be an ideal);
  * the same with dim a = 4 (class 4: Perm(Omega) != rho tensor rho*);
plus the plane-curve fiber-count exercises (parabola: equal; the cubic
curve (t, t^2, t^3): different images).

All statements hold at class <= 2, which the battery also samples.
"""

import numpy as np

from . import linalg
from .families import ul_lie_scheme
from .liering import from_bracket_table
from .orbits import (
    _residue_counts,
    coadjoint_orbits,
    conjugacy_class_data,
    module_property_check,
    orbit_method_table,
    perm_vs_tensor,
    pointset_fiber_comparison,
)
from .polar import polarization_containment_search
from .groups import induce_character
from .cyclo import Cyclotomic, lincomb, product_table

# every report runs over F_5: the smallest prime above the witnesses'
# nilpotence classes (the class-4 witness needs p > 4 for its Lazard law)
P = 5
# the class <= 3 rings statement7_class3_samples draws: how many, the seed
# of random_class_le3_rings and their largest dimension
CLASS3_SAMPLES = 20
CLASS3_SEED = 11
CLASS3_MAX_DIM = 5


def appendix_h2_ring(p=5):
    """[x,y] = z, [x,z] = t; basis (x, y, z, t)."""
    return from_bracket_table(p, 4, {(0, 1): {2: 1}, (0, 2): {3: 1}})


def witness_ring(p, adim):
    """c x| a: basis (v, a_1..a_adim) with [v, a_i] = a_{i+1}, a abelian."""
    table = {}
    for i in range(adim - 1):
        table[(0, 1 + i)] = {2 + i: 1}
    return from_bracket_table(p, 1 + adim, table)


def statement1_report():
    """Is Ind from the stabilizer a multiple of rho_Omega?  (No at class 3.)

    On the dim-4 ring with f = t*: the induced character from Exp(g^f) has
    at least two distinct irreducible constituents.
    """
    ring = appendix_h2_ring(P)
    cd = conjugacy_class_data(ring)
    table, orbits = orbit_method_table(ring)
    f = np.zeros(ring.dim, dtype=np.int64)
    f[3] = 1
    stab = ring.stabilizer_subspace(f)
    points = stab.points()
    zetas = [Cyclotomic.zeta(P, r) for r in range(P)]
    ind = induce_character(cd, linalg.encode_vectors(points, P), points @ f % P, zetas)
    constituents = []
    for i, row in enumerate(table.rows):
        m = ind.inner(row)
        if not m.is_zero():
            constituents.append((i, m))
    distinct = len(constituents)
    return {
        "ring": "h2",
        "distinct_constituents": distinct,
        "refuted": distinct >= 2,
        "constituents": constituents,
    }


def statement2_report():
    """span(x, t) is isotropic for f = t* but lies in no polarization."""
    ring = appendix_h2_ring(P)
    f = np.zeros(ring.dim, dtype=np.int64)
    f[3] = 1
    h0 = np.zeros((2, ring.dim), dtype=np.int64)
    h0[0, 0] = 1
    h0[1, 3] = 1
    found = polarization_containment_search(ring, f, h0)
    return {"ring": "h2", "found": found, "refuted": found is None}


def statement36_report():
    """Phi^-1(K(Omega)) fails to be a left ideal at class 3.

    Witness: c x| a with dim a = 3, lambda nontrivial on (ad v)^2(a).
    """
    ring = witness_ring(P, 3)
    lam = np.zeros(ring.dim, dtype=np.int64)
    lam[3] = 1  # a3* is nontrivial on (ad v)^2(a) = span(a3)
    oset = coadjoint_orbits(ring)
    orb = oset.orbit_of_index(ring.element_index(lam))
    holds = module_property_check(ring, orb)
    return {"ring": "class3-witness", "module_property": holds, "refuted": not holds}


def statement3_explicit_pair():
    """An invariant x = e_Omega and a delta y with Phi(x*y) != Phi(x)Phi(y).

    Exhibits the module-structure failure of statement (3) directly on the
    class-3 witness (statements (3) and (6) are equivalent).  With
    e(exp x) = (deg/|G|) chi(exp(-x)), the sides are the transforms of
    e(exp(x) gamma^-1) and of e(exp(x - log gamma)): residue counts keyed by
    the inverse class of the point, whose integer forms (deg/|G| left out)
    are compared a block of lambdas at a time."""
    ring = witness_ring(P, 3)
    table, orbits = orbit_method_table(ring)
    cd = table.class_data
    lam = np.zeros(ring.dim, dtype=np.int64)
    lam[3] = 1
    oset = coadjoint_orbits(ring)
    target_label = int(oset.labels[ring.element_index(lam)])
    row = next(
        r for r, o in zip(table.rows, orbits) if int(oset.labels[o.base_index]) == target_label
    )
    t = cd.num_classes
    products, _, _ = product_table(row.values, [Cyclotomic.zeta(P, r) for r in range(P)])
    products = products.reshape(t * P, -1)
    X = ring.all_elements()

    def inverse_class(points):
        return cd.inv_class[cd.class_of[linalg.encode_vectors(points % P, P)]]

    for gi in range(ring.dim):
        log_gamma = ring.basis_vector(gi)
        left = inverse_class(ring.group_mul_bulk(X, np.tile(-log_gamma, (len(X), 1))))
        right = inverse_class(X - log_gamma)
        pairs = zip(_residue_counts(X, X, left, t, 1, P), _residue_counts(X, X, right, t, 1, P))
        for (start, lhs), (_, rhs) in pairs:
            differ = lincomb(lhs - rhs, products).any(axis=1)
            if differ.any():
                return {
                    "refuted": True,
                    "gamma_index": ring.element_index(log_gamma),
                    "lambda_index": start + int(differ.argmax()),
                }
    return {"refuted": False}


def statement7_class4_report():
    """Perm(Omega) != rho tensor rho* on the class-4 witness."""
    ring = witness_ring(P, 4)
    if ring.nilpotence_class() != 4:
        raise AssertionError("witness ring does not have class 4")
    lam = np.zeros(ring.dim, dtype=np.int64)
    lam[4] = 1  # generic: not killed by (ad* v)^3
    oset = coadjoint_orbits(ring)
    orb = oset.orbit_of_index(ring.element_index(lam))
    report, equal = perm_vs_tensor(ring, orb)
    return {
        "ring": "class4-witness",
        "orbit_size": orb.size,
        "equal": equal,
        "refuted": not equal,
    }


def statement7_class3_samples():
    """Property (7) holds on every orbit of class <= 3 rings (sampled)."""
    results = []
    for ring in random_class_le3_rings(P, CLASS3_SAMPLES, CLASS3_SEED, CLASS3_MAX_DIM):
        oset = coadjoint_orbits(ring)
        ok = True
        for orb in oset.orbits:
            _, equal = perm_vs_tensor(ring, orb)
            if not equal:
                ok = False
                break
        results.append((ring.dim, ring.nilpotence_class(), ok))
    return {
        "count": len(results),
        "all_hold": all(ok for _, _, ok in results),
        "results": results,
    }


def random_class_le3_rings(p, count, seed, max_dim=5):
    """Deterministic zoo of valid Lie rings of class <= 3 over F_p.

    Random bracket-closed subrings of the UL_4 Lie algebra (class 3), then
    random quotients by central subspaces; every output passes validate().
    """
    base = ul_lie_scheme(4, p).at_level(1)
    rng = np.random.default_rng(seed)
    out = []
    guard = 0
    while len(out) < count and guard < count * 60:
        guard += 1
        k = int(rng.integers(2, base.dim + 1))
        rows = rng.integers(0, p, (k, base.dim))
        from .polar import bracket_closure

        sub = bracket_closure(base, base.subspace(rows))
        if sub.dim == 0 or sub.dim > max_dim:
            continue
        ring, _ = base.subring(sub)
        # optionally mod out a random central subspace
        if rng.integers(0, 2) and ring.center().dim > 0:
            ctr = ring.center()
            pick = rng.integers(0, p, ctr.dim)
            v = (pick @ ctr.rows) % p
            if v.any():
                ring, _ = ring.quotient(ring.subspace(v.reshape(1, -1)))
        if ring.dim == 0 or ring.dim > max_dim:
            continue
        rep = ring.validate()
        if not rep.ok or rep.nilpotence_class > 3:
            continue
        out.append(ring)
    if len(out) < count:
        raise AssertionError("zoo generation starved")
    return out


def parabola_report():
    """pi and pi~ for the parabola (t, t^2): fiber counts agree."""
    ts = np.arange(P, dtype=np.int64)
    points = np.stack([ts, (ts * ts) % P], axis=1)
    tangents = [np.array([[1, (2 * t) % P]], dtype=np.int64) for t in ts]
    rep = pointset_fiber_comparison(points, tangents, P)
    return {"curve": "parabola", "equal": rep["equal"], "report": rep}


def veronese_report():
    """pi and pi~ for (t, t^2, t^3): the images differ."""
    ts = np.arange(P, dtype=np.int64)
    points = np.stack([ts, (ts * ts) % P, (ts * ts * ts) % P], axis=1)
    tangents = [
        np.array([[1, (2 * t) % P, (3 * t * t) % P]], dtype=np.int64) for t in ts
    ]
    rep = pointset_fiber_comparison(points, tangents, P)
    return {
        "curve": "veronese",
        "images_equal": rep["images_equal"],
        "refuted": not rep["images_equal"],
        "report": rep,
    }


def class2_module_property_samples():
    """Statements (3)/(6) hold at class <= 2: Heisenberg and abelian."""
    from .liering import abelian_ring, heisenberg_ring

    out = []
    for ring in (heisenberg_ring(P), abelian_ring(P, 2)):
        oset = coadjoint_orbits(ring)
        ok = all(module_property_check(ring, orb) for orb in oset.orbits)
        out.append(ok)
    return {"all_hold": all(out)}


def full_battery():
    """Everything the counterexamples CLI subcommand reports."""
    return {
        "statement1": statement1_report(),
        "statement2": statement2_report(),
        "statement36": statement36_report(),
        "statement3_pair": statement3_explicit_pair(),
        "statement7_class4": statement7_class4_report(),
        "statement7_class3": statement7_class3_samples(),
        "class2_module_property": class2_module_property_samples(),
        "parabola": parabola_report(),
        "veronese": veronese_report(),
    }
