"""The benchmark's workloads: seeded inputs and the fixed job list of each.

`build(workload, seed, pins)` constructs the inputs (rings, schemes,
groups) and returns the run's job list as `Job`s.  A job calls the public
nilorbit API the way one CLI invocation would, raises `JobFailure` when an
in-job check fails, and returns its canonical outputs (table CSVs,
packet-report CSVs, golden lines) by output key; the caller compares each
output's digest with the pinned one.  `build_all` returns every job any
seed can draw, for `pin.py`.

The first job of each list is the same for every seed, so its time is the
cost of a cold one-shot call.
"""

import hashlib
from fractions import Fraction

import numpy as np

# Layers are reached through their modules, never through names bound here,
# so the tracer's wrappers see every call.
from nilorbit import battery, chartable, dixon, families as fam, liering
from nilorbit import orbits as ob, packets as pk

WORKLOADS = ("oracle_tables", "convolution", "packets", "golden")


class JobFailure(Exception):
    """An in-job check found a wrong result."""


class Job:
    """One CLI-like call; `run()` returns {output key: canonical text}."""

    __slots__ = ("key", "run")

    def __init__(self, key, run):
        self.key = key
        self.run = run


def _single(key, run):
    """A job with one output, keyed like the job."""
    return Job(key, lambda: {key: run()})


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ring_digest(ring):
    """Digest of a Lie ring's structure constants, to detect input drift."""
    c = np.ascontiguousarray(ring.constants, dtype=np.int64)
    return digest("%d %s %s" % (ring.p, c.shape, c.tobytes().hex()))


def _check(cond, what):
    if not cond:
        raise JobFailure(what)


def _criterion2_rings():
    """The criterion-2 rings without the class-4 witness, which (order 5^5,
    ~9 s for oracle and table) alone would outlast several rounds."""
    return [
        ("heisenberg_f3", liering.heisenberg_ring(3)),
        ("heisenberg_f5", liering.heisenberg_ring(5)),
        ("fake_heisenberg_q9", fam.fake_heisenberg(3, 2)),
        ("ul3_f5", fam.ul_lie_scheme(3, 5).at_level(1)),
        ("h2", battery.appendix_h2_ring(5)),
        ("class3_witness", battery.witness_ring(5, 3)),
    ]


def _first(rings, name):
    """Move the ring called `name` to the front (the fixed cold job)."""
    return sorted(rings, key=lambda nr: nr[0] != name)


# -- oracle_tables --------------------------------------------------------------
#
# `chartable --oracle` on each ring: orbit-method table, Dixon oracle,
# equals_as_set, verify, to_csv.  The seeded rings come from a fixed pool
# drawn by battery.random_class_le3_rings; `pins.json` lists the pool
# members of each (dimension, class count) stratum, and every seed draws the
# same number from each stratum, so the work per run does not depend on the
# seed.

ORACLE_PICKS = {"dim3": 2, "dim4": 3}


def oracle_pool(spec):
    return battery.random_class_le3_rings(
        spec["p"], spec["count"], seed=spec["seed"], max_dim=spec["max_dim"]
    )


def _oracle_job(ring):
    def run():
        table, _ = ob.orbit_method_table(ring)
        oracle = dixon.dixon_table(ob.lazard_group(ring))
        _check(table.equals_as_set(oracle), "orbit-method table differs from the oracle")
        table.verify()
        return table.to_csv()

    return run


def _oracle_inputs(pins, picks):
    spec = pins["oracle_tables"]["pool"]
    pool = oracle_pool(spec)
    rings = _first(_criterion2_rings(), "h2")
    for stratum, idxs in picks:
        for i in idxs:
            key = "zoo%02d" % i
            if ring_digest(pool[i]) != pins["oracle_tables"]["inputs"][key]:
                raise JobFailure("pool ring %s differs from the pinned input" % key)
            rings.append((key, pool[i]))
    return [_single("oracle_tables/%s" % name, _oracle_job(ring)) for name, ring in rings]


def _oracle_build(seed, pins):
    rng = np.random.default_rng(seed)
    strata = pins["oracle_tables"]["strata"]
    picks = [
        (s, sorted(rng.choice(strata[s], size=k, replace=False).tolist()))
        for s, k in ORACLE_PICKS.items()
    ]
    return _oracle_inputs(pins, picks)


def _oracle_build_all(pins):
    return _oracle_inputs(pins, sorted(pins["oracle_tables"]["strata"].items()))


# -- convolution ------------------------------------------------------------------
#
# Criterion-9 identities on the criterion-2 rings of order <= 5^4, one job
# per ring: orbit-method table, verify(columns=True), verify_phi_idempotents,
# then chi * chi == (|G|/deg) chi on seed-drawn rows.  Rows are drawn per
# degree stratum (nontrivial linear, degree > 1) with a fixed count, so the
# work per run does not depend on the seed.  Each row's convolution is an
# output of its own, pinned separately.

CONV_PICKS = {"h2": 2, "class3_witness": 2}  # rows per stratum; others 1


def _conv_job(name, ring, info, rows):
    def run():
        table, orbits = ob.orbit_method_table(ring)
        _check(len(table.rows) == info["classes"], "class count changed")
        _check(table.degrees.count(1) == info["linear"], "number of linear characters changed")
        _check(all(v == 1 for v in table.rows[0].values), "row 0 is not the trivial character")
        _check(table.verify(columns=True), "verify(columns=True) failed")
        _check(ob.verify_phi_idempotents(ring, table, orbits), "Phi idempotents fail")
        out = {"convolution/%s/table" % name: table.to_csv()}
        G = ob.lazard_group(ring)
        for i in rows:
            chi = table.rows[i]
            conv = chartable.convolve(chi, chi, G)
            _check(conv == chi.scale(Fraction(G.n) / chi.degree.rational_value()), "chi * chi != (|G|/deg) chi")
            out["convolution/%s/row%02d" % (name, i)] = conv.serialize() + "\n"
        return out

    return run


def _conv_inputs(pins, row_choice):
    layout = pins["convolution"]["rows"]
    rings = _first(_criterion2_rings(), "h2")  # all of order <= 5^4
    return [
        Job("convolution/%s" % name, _conv_job(name, ring, layout[name], row_choice(name, layout[name])))
        for name, ring in rings
    ]


def _conv_strata(info):
    return [range(1, info["linear"]), range(info["linear"], info["classes"])]


def _conv_build(seed, pins):
    rng = np.random.default_rng(seed)

    def choose(name, info):
        k = CONV_PICKS.get(name, 1)
        out = []
        for stratum in _conv_strata(info):
            out += sorted(rng.choice(list(stratum), size=k, replace=False).tolist())
        return out

    return _conv_inputs(pins, choose)


def _conv_build_all(pins):
    return _conv_inputs(pins, lambda name, info: [i for s in _conv_strata(info) for i in s])


# -- packets ----------------------------------------------------------------------
#
# base_change_and_packets at level 1 for fake Heisenberg p=3 (packets of size
# >= 2), UL3(F7) and abelian(3,1,1) (size 1), plus the criterion-8
# base_change_map composition check.  The inputs are fixed; the seed draws
# the order of the jobs after the first.  psi_k stays 1: PacketReport builds
# its orbit set and fdim estimates at psi_k = 1 whatever the ladder used, so
# any other psi_k doubles the orbit work and would make the work depend on
# the seed.  UL3(F3) is left out: it alone takes ~7 s, most of it in the
# affine class-2 engine beyond the dense budget.


def _packets_job(scheme, expect):
    def run():
        _, rep = pk.base_change_and_packets(scheme, 1)
        _check(rep.certified_at is not None and rep.confirmed_at is not None, "packets not certified")
        if expect == "packets":
            _check(rep.max_packet_size() >= 2, "no packet of size >= 2")
            om = rep.orbit_set
            for pack in rep.packets:
                if len(pack) >= 2:
                    _check(all(int(om.orbits[i].base_point[-1]) != 0 for i in pack), "packet off the v != 0 orbits")
        else:
            _check(rep.max_packet_size() == 1, "unexpected packet of size > 1")
        return rep.to_csv()

    return run


def _composition_job(scheme):
    def run():
        m12, _, _ = pk.base_change_map(scheme, 1, 2)
        m24, _, _ = pk.base_change_map(scheme, 2, 4)
        m14, _, _ = pk.base_change_map(scheme, 1, 4)
        _check((m24[m12] == m14).all(), "base-change maps do not compose")
        return "\n".join(" ".join(str(int(v)) for v in m) for m in (m12, m24, m14)) + "\n"

    return run


def _packets_build_all(pins):
    fh = fam.fake_heisenberg_scheme(3, 1)
    return [
        _single("packets/fake_heisenberg_p3", _packets_job(fh, "packets")),
        _single("packets/composition", _composition_job(fh)),
        _single("packets/ul3_f7", _packets_job(fam.ul_lie_scheme(3, 7), "singletons")),
        _single("packets/abelian_3_1_1", _packets_job(fam.abelian_scheme(3, 1, 1), "singletons")),
    ]


def _shuffled_tail(jobs, seed):
    """Keep the first job; the seed draws the order of the rest."""
    rest = jobs[1:]
    order = np.random.default_rng(seed).permutation(len(rest))
    return jobs[:1] + [rest[i] for i in order]


def _packets_build(seed, pins):
    return _shuffled_tail(_packets_build_all(pins), seed)


# -- golden -----------------------------------------------------------------------
#
# The USp4 suite as `golden --q 4 --oracle`, `golden --q 3` and `golden --q 5`
# would run it: usp4_lusztig_table(4) with its count law, the Dixon oracle on
# USp4(F4) and the little-groups table; then the odd-q power-of-q law (Dixon
# on usp4_via_sp).  The inputs are fixed; the seed draws the order of the
# odd-q jobs.


def _golden_inputs():
    G4 = fam.usp4(4, spot_check=False)
    odd = {q: fam.usp4_via_sp(q) for q in (3, 5)}

    def even_q():
        q = 4
        t4 = fam.usp4_lusztig_table(q)
        t4.verify()
        counts = t4.degree_multiset()
        _check(counts == {1: q * q, q: 2 * (q - 1), q // 2: 4 * (q - 1) ** 2}, "Lusztig degree counts are off")
        oracle = dixon.dixon_table(G4)
        _check(t4.equals_as_set(oracle), "Lusztig table differs from the oracle")
        lg = fam.usp4_little_groups_table(q)
        _check(t4.equals_as_set(lg), "little-groups table differs")
        return {
            "golden/usp4_q4_lusztig": "lusztig_counts %s\n%s" % (sorted(counts.items()), t4.to_csv()),
            "golden/usp4_q4_oracle": "oracle_match True\n%s" % oracle.to_csv(),
            "golden/usp4_q4_little_groups": "little_groups_match True\n%s" % lg.to_csv(),
        }

    def odd_q(q):
        def run():
            G = odd[q]
            table = dixon.dixon_table(G)
            table.verify()
            degs = set(table.degrees)
            _check(degs <= {q**k for k in range(8)}, "odd-q degrees are not powers of q")
            return "order %d\ndegrees %s\npowers_of_q True\n%s" % (
                G.n,
                sorted(table.degree_multiset().items()),
                table.to_csv(),
            )

        return run

    return [
        Job("golden/usp4_q4", even_q),
        _single("golden/usp4_via_sp_q3", odd_q(3)),
        _single("golden/usp4_via_sp_q5", odd_q(5)),
    ]


def _golden_build(seed, pins):
    return _shuffled_tail(_golden_inputs(), seed)


def _golden_build_all(pins):
    return _golden_inputs()


_BUILD = {
    "oracle_tables": (_oracle_build, _oracle_build_all),
    "convolution": (_conv_build, _conv_build_all),
    "packets": (_packets_build, _packets_build_all),
    "golden": (_golden_build, _golden_build_all),
}


def build(workload, seed, pins):
    """The run's job list for `workload` at `seed` (inputs constructed)."""
    return _BUILD[workload][0](seed, pins)


def build_all(workload, pins):
    """Every job any seed can draw for `workload`."""
    return _BUILD[workload][1](pins)
