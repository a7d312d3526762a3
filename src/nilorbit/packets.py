"""Base change across F_{q^m} <= F_{q^n} towers and L-packet detection.

A level of a tower materializes g(F_{q^n}) as an F_p Lie ring; the dual is
identified with the points via the trace form psi(tr(sum u_i x_i)), so dual
functionals carry u-coordinates that embed along the tower exactly like
points do.  The base-change map sends a level-m coadjoint orbit to the
level-n orbit through its embedded base point.

A packet at level m is a fiber of that map once the fiber partition is
stable: n doubles until two consecutive rounds agree, then a confirmation
round at p times the first agreeing level must concur (stabilizer
component groups of unipotent groups are p-groups, so fusion can first
appear at levels divisible by p, which doublings alone never reach).  The
geometric orbits over the algebraic closure are never materialized; the
report carries the certification and confirmation levels.
"""

from fractions import Fraction

import numpy as np

from . import kernels, linalg
from .orbits import coadjoint_orbits

# the highest tower level the packet ladder climbs to before giving up
MAX_LEVEL = 512


class TowerInstance:
    """One materialized level g(F_{q^n}) with its dual bookkeeping."""

    def __init__(self, scheme, n):
        self.scheme = scheme
        self.n = n
        self.ring = scheme.at_level(n)
        self.field = self.ring.fq.field
        p = self.ring.p
        s = self.field.s
        # Gram matrix of the trace form on the power basis, via bulk products
        pair_t = np.repeat(np.arange(s), s)
        pair_u = np.tile(np.arange(s), s)
        eye = np.eye(s, dtype=np.int64)
        prods = self.field.bulk_mul(eye[pair_t], eye[pair_u])  # (s^2, s)
        T = self.field.trace_matrix()
        G = ((prods @ T.T) % p)[:, 0].reshape(s, s)
        self.gram = G
        self.gram_full = np.kron(np.eye(scheme.dim_q, dtype=np.int64), G)
        self.gram_full_inv = linalg.inverse(self.gram_full, p)
        self.frobenius = self.ring.fq.frobenius_matrix
        # dual (pullback) Frobenius: <F x, lam> = <x, D lam>, D = F^T;
        # in u-coordinates this is u -> u^(1/p)
        self.dual_frobenius = self.frobenius.T.copy() % p

    def dual_to_u(self, lam):
        """u-coordinates (flat) of the functional lam (dot-pairing vector)."""
        return (self.gram_full_inv @ np.asarray(lam, dtype=np.int64)) % self.ring.p

    def u_to_dual(self, u_flat):
        return (self.gram_full @ np.asarray(u_flat, dtype=np.int64)) % self.ring.p

    def orbits(self, psi_k=1):
        return coadjoint_orbits(self.ring, psi_k=psi_k)


def tower_instance(scheme, n):
    """The TowerInstance of level n, built once per scheme and level (it is
    cached with the level's ring, which `at_level` caches)."""
    cache = scheme.at_level(n)._cache
    if "tower" not in cache:
        cache["tower"] = TowerInstance(scheme, n)
    return cache["tower"]


def _gather(labels, points, M, p):
    """labels of the points M x, for the rows x of points."""
    return labels[linalg.encode_vectors((points @ M.T) % p, p)]


def dual_embedding_matrix(scheme, m, n):
    """F_p-linear map of dual vectors from level m into level n.

    Functionals embed through their u-coordinates (the paper's inclusion
    g*(F_{q^m}) into g*(F_{q^n})), so the matrix is
    gram_n . blockdiag(field embedding) . gram_m^-1.
    """
    tm = tower_instance(scheme, m)
    tn = tower_instance(scheme, n)
    E = scheme.embedding_matrix(m, n)
    return (tn.gram_full @ E @ tm.gram_full_inv) % tm.ring.p


def base_change_map(scheme, m, n, psi_k=1, check_equivariance=True):
    """T_m^n on orbit sets: level-m orbit -> level-n orbit of the embedded
    base point.  Returns (mapping array, level-m OrbitSet, level-n OrbitSet).
    """
    if n % m != 0:
        raise ValueError("levels must satisfy m | n")
    tm = tower_instance(scheme, m)
    tn = tower_instance(scheme, n)
    DE = dual_embedding_matrix(scheme, m, n)
    om = tm.orbits(psi_k)
    on = tn.orbits(psi_k)
    mapping = _gather(on.labels, om.base_points, DE, tm.ring.p)
    if check_equivariance:
        _check_fr_equivariance(scheme, m, n, DE, om, on, mapping)
    return mapping, om, on


def _check_fr_equivariance(scheme, m, n, DE, om, on, mapping):
    """T is Fr-equivariant and lands in the Gal(F_{q^n}/F_{q^m})-fixed part."""
    tm = tower_instance(scheme, m)
    tn = tower_instance(scheme, n)
    p = tm.ring.p
    s = scheme.field.s
    Dq_m = linalg.matpow(tm.dual_frobenius, s, p)  # q-Frobenius pullback, level m
    Dq_n = linalg.matpow(tn.dual_frobenius, s, p)
    Dqm_n = linalg.matpow(tn.dual_frobenius, s * m, p)  # generates Gal(n/m)
    img = (om.base_points @ DE.T) % p  # embedded base points, one row per orbit
    # image orbits fixed by Gal(F_{q^n}/F_{q^m})
    if (_gather(on.labels, img, Dqm_n, p) != mapping).any():
        raise AssertionError("image orbit is not Galois-fixed")
    # equivariance under Fr_q on both levels
    src = _gather(om.labels, om.base_points, Dq_m, p)
    if (mapping[src] != _gather(on.labels, img, Dq_n, p)).any():
        raise AssertionError("base change is not Fr-equivariant")


def _fiber_partition(mapping):
    """Canonical partition of level-m orbit ids by their image."""
    fibers = {}
    for i, tgt in enumerate(mapping.tolist()):
        fibers.setdefault(tgt, []).append(i)
    return sorted(tuple(v) for v in fibers.values())


def _affine_fusion_partition(scheme, m, n, psi_k=1):
    """Fibers of T_m^n for class <= 2 rings, without enumerating level n.

    For class <= 2 the coadjoint orbit of lam is the affine subspace
    lam + W(lam), W(lam) = {lam o ad x : x}, and W is orbit-invariant, so
    fusion of embedded base points is a subspace membership test and an
    equivalence: each point still open is a class representative, whose
    W fuses it with the open points of its class.  This makes levels far
    beyond the dense budget reachable (the dimension grows linearly in n
    while the point count grows exponentially).
    """
    _require_class_2(scheme, n)
    ring_n = scheme.at_level(n)
    p = ring_n.p
    om = tower_instance(scheme, m).orbits(psi_k)
    points = (om.base_points @ dual_embedding_matrix(scheme, m, n).T) % p
    # the least point each point fuses with
    label = np.full(len(points), -1)
    for i in range(len(points)):
        if label[i] < 0:
            # row i of B_f is lam o ad(e_i), so B_f spans W(lam)
            basis = linalg.rref(ring_n.bf_matrix(points[i]), p)[0]
            unlabeled = np.flatnonzero(label < 0)
            fused = ~linalg.reduce_by(basis, points[unlabeled] - points[i], p).any(axis=1)
            label[unlabeled[fused]] = i
    return _fiber_partition(label), om


def _require_class_2(scheme, n):
    """Raise unless level n has nilpotence class <= 2.  The structural test
    on the scheme answers without building the level's lower central series."""
    if scheme.brackets_land_in_unread_coordinates:
        return
    if scheme.at_level(n).nilpotence_class() > 2:
        raise ValueError("affine fusion engine needs nilpotence class <= 2")


def _partition_at(scheme, m, n, psi_k):
    """Fiber partition of level-m orbits at level n, dense when the orbit
    kernel can enumerate the level."""
    d_n = scheme.dim_q * scheme.field.s * n
    if scheme.field.p**d_n <= kernels.DENSE_BUDGET:
        mapping, om, on = base_change_map(scheme, m, n, psi_k=psi_k)
        return _fiber_partition(mapping), ("dense", mapping, om, on)
    part, om = _affine_fusion_partition(scheme, m, n, psi_k)
    return part, ("affine", None, om, None)


def base_change_and_packets(scheme, m=1, psi_k=1):
    """Packets at level m: stable fibers of T_m^n as n grows.

    Ladder: n doubles starting at 2m; when two consecutive doubling rounds
    agree, a confirmation round at p times the first agreeing level runs
    before certifying (the component group of a unipotent stabilizer is a
    p-group, so fusion can first appear at levels divisible by p, which a
    pure doubling ladder never reaches).  If confirmation reveals new
    fusion the ladder restarts from that level.  Levels beyond the dense
    enumeration budget use the affine class-2 engine.

    Returns (mapping or None, PacketReport); the report carries the
    certified and confirmation levels, packet sizes, and fdim estimates.
    """
    p = scheme.field.p
    rounds = []  # (n, partition, detail)
    n = 2 * m
    prev = None  # (level, partition) of the previous round in the chain
    certified = None
    confirmed = None
    while n <= MAX_LEVEL:
        part, detail = _partition_at(scheme, m, n, psi_k)
        rounds.append((n, part, detail))
        if prev is not None and prev[1] == part:
            # two agreeing doubling rounds; confirm at p times the first,
            # which the doubling chain can never reach on its own (the
            # stabilizer component group is a p-group)
            n_conf = p * prev[0]
            part_conf, detail_conf = _partition_at(scheme, m, n_conf, psi_k)
            rounds.append((n_conf, part_conf, detail_conf))
            if part_conf == part:
                certified = n
                confirmed = n_conf
                break
            # new fusion found: restart the doubling chain from n_conf
            prev = (n_conf, part_conf)
            n = 2 * n_conf
            continue
        prev = (n, part)
        n *= 2
    if certified is None:
        raise ValueError("fiber partition did not stabilize within level %d" % MAX_LEVEL)
    # exhaustive checks at the densely materialized levels
    dense_rounds = [
        (nn, det[1], det[2], det[3]) for nn, _, det in rounds if det[0] == "dense"
    ]
    for (n1, map1, om1, on1), (n2, map2, om2, on2) in zip(
        dense_rounds, dense_rounds[1:]
    ):
        if n2 % n1 != 0:
            continue
        mid, _, _ = base_change_map(
            scheme, n1, n2, psi_k=psi_k, check_equivariance=False
        )
        if (mid[map1] != map2).any():
            raise AssertionError("base-change maps do not compose")
    packets = rounds[-1][1]
    report = PacketReport(
        scheme, m, certified, confirmed, rounds, packets, dense_rounds, psi_k
    )
    if dense_rounds:
        n_last, map_last, om_last, on_last = dense_rounds[-1]
        report.fixed_orbit_coverage = _fixed_orbit_coverage(
            scheme, m, n_last, map_last, on_last
        )
    mapping = dense_rounds[-1][1] if dense_rounds else None
    return mapping, report


def _fixed_orbit_coverage(scheme, m, n, mapping, on):
    """How T_m^n covers the Gal(F_{q^n}/F_{q^m})-stable level-n orbits.

    The image always consists of stable orbits; the count of stable orbits
    NOT hit measures the failure of finite-level surjectivity (the paper's
    surjectivity statement concerns the limit over n, and a stable orbit
    with no rational point is the H^1 phenomenon itself).  For commutative
    schemes the map is a bijection onto the stable orbits.
    """
    tn = tower_instance(scheme, n)
    p = tn.ring.p
    s = scheme.field.s
    Dqm = linalg.matpow(tn.dual_frobenius, s * m, p)
    fixed = _gather(on.labels, on.base_points, Dqm, p) == np.arange(len(on))
    hit = np.zeros(len(on), dtype=bool)
    hit[mapping] = True
    if (hit & ~fixed).any():
        raise AssertionError("base change hits a non-stable orbit (bug)")
    missed = int(fixed.sum() - hit.sum())
    return {
        "level": n,
        "stable_orbits": int(fixed.sum()),
        "hit": int(hit.sum()),
        "missed_stable": missed,
        "onto_stable": missed == 0,
    }


class PacketReport:
    def __init__(
        self, scheme, m, certified_at, confirmed_at, rounds, packets, dense_rounds, psi_k
    ):
        self.scheme = scheme
        self.m = m
        self.certified_at = certified_at
        self.confirmed_at = confirmed_at
        self.rounds = rounds
        self.dense_rounds = dense_rounds
        self.packets = packets  # list of tuples of level-m orbit ids
        self.orbit_set = rounds[-1][2][2]  # the ladder's level-m orbits
        self.psi_k = psi_k
        self._packet_of = {}
        for pid, pack in enumerate(packets):
            for oid in pack:
                self._packet_of[oid] = pid

    def packet_sizes(self):
        return sorted(len(p) for p in self.packets)

    def max_packet_size(self):
        return max(len(p) for p in self.packets)

    def fdim_estimates(self):
        """Per level-m orbit: (1/2) log_q of the orbit-size growth ratio
        between the last two densely materialized levels, an exact Fraction
        since all orbit sizes are powers of p."""
        if len(self.dense_rounds) < 2:
            return [None] * len(self.orbit_set)
        # each dense round holds T_m^n from the ladder's level m (it starts
        # at 2m, so no round is at level m itself)
        (n1, map1, _, on1), (n2, map2, _, on2) = self.dense_rounds[-2:]
        s = self.scheme.field.s
        growth = on2.half_logs[map2] - on1.half_logs[map1]
        return [Fraction(e, s * (n2 - n1)) for e in growth.tolist()]

    def to_csv(self):
        om = self.orbit_set
        fdims = self.fdim_estimates()
        lines = [
            "orbit_id,base_point,orbit_size,fdim_estimate,packet_id,packet_size,certified_level"
        ]
        for i, (point, size) in enumerate(zip(om.base_points.tolist(), om.sizes.tolist())):
            pid = self._packet_of[i]
            lines.append(
                "%d,%s,%d,%s,%d,%d,%d"
                % (
                    i,
                    " ".join(map(str, point)),
                    size,
                    fdims[i] if fdims[i] is not None else "",
                    pid,
                    len(self.packets[pid]),
                    self.certified_at,
                )
            )
        return "\n".join(lines) + "\n"


# -- abelian trace/Lang checks ------------------------------------------------------


def abelian_trace_check(scheme, m, n):
    """Exactness Gamma_n --L_m--> Gamma_n --tr--> Gamma_m --> 0 on points,
    plus the duality: characters of Gamma_m pulled back along tr are exactly
    the Fr^m-fixed characters of Gamma_n."""
    if scheme.bracket_terms:
        raise ValueError("trace check needs a commutative (abelian) scheme")
    if n % m != 0:
        raise ValueError("levels must satisfy m | n")
    tn = tower_instance(scheme, n)
    p = tn.ring.p
    s = scheme.field.s
    d_n = tn.ring.dim
    F = tn.frobenius
    Frm = linalg.matpow(F, s * m, p)
    # tau = 1 + Fr^m + ... + Fr^(n-m)
    tau = np.zeros((d_n, d_n), dtype=np.int64)
    cur = np.eye(d_n, dtype=np.int64)
    for _ in range(n // m):
        tau = (tau + cur) % p
        cur = (cur @ Frm) % p
    E = scheme.embedding_matrix(m, n)
    # image of tau equals the embedded level-m copy (trace surjectivity)
    im_tau, _ = linalg.rref(tau.T, p)
    im_E, _ = linalg.rref(E.T, p)
    if im_tau.shape != im_E.shape or (im_tau != im_E).any():
        raise AssertionError("trace image is not the embedded lower level")
    # exactness: ker(tau) = im(L_m), L_m = Fr^m - 1
    L = (Frm - np.eye(d_n, dtype=np.int64)) % p
    ker_tau = linalg.kernel(tau, p)
    im_L, _ = linalg.rref(L.T, p)
    kt, _ = linalg.rref(ker_tau, p)
    if kt.shape != im_L.shape or (kt != im_L).any():
        raise AssertionError("ker(tr) != im(Lang) on points")
    # duality: {lam o tr} = Fr^m-fixed characters of Gamma_n
    Tmat = _solve_matrix(E, tau, p)  # E @ Tmat = tau
    pullback_rows, _ = linalg.rref(Tmat, p)  # row space of lam -> lam @ Tmat
    Dqm = linalg.matpow(tn.dual_frobenius, s * m, p)
    fixed = linalg.kernel((Dqm - np.eye(d_n, dtype=np.int64)) % p, p)
    fx, _ = linalg.rref(fixed, p)
    if pullback_rows.shape != fx.shape or (pullback_rows != fx).any():
        raise AssertionError("pullback characters != Fr^m-fixed characters")
    return {
        "trace_surjective": True,
        "kernel_is_lang_image": True,
        "duality_fixed_part": True,
        "kernel_size": p ** kt.shape[0],
    }


def _solve_matrix(E, tau, p):
    """T with E @ T = tau (columnwise), for injective E."""
    cols = []
    for j in range(tau.shape[1]):
        x = linalg.solve(E, tau[:, j], p)
        if x is None:
            raise AssertionError("trace does not land in the embedded level")
        cols.append(x)
    return np.array(cols, dtype=np.int64).T
