"""Command-line surface.

Subcommands: validate, chartable, orbits, packets, polarize, golden,
counterexamples.  Input is a family (--family with its parameters) or a
ring/algebra file (--file).  Outputs are CSV tables or line-oriented
reports, deterministic for a fixed invocation.  Exit codes: 0 success,
1 verification failure, 2 input error.
"""

import argparse
import sys

import numpy as np

from . import battery, families, packets, polar, ringio
from .dixon import dixon_table
from .orbits import coadjoint_orbits, lazard_group, orbit_method_table


class InputError(Exception):
    pass


class VerificationError(Exception):
    pass


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nilorbit",
        description="characters of finite nilpotent groups via the orbit method",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, family=True):
        if family:
            sp.add_argument(
                "--family",
                choices=["fakeheis", "ul", "usp4", "spas", "algebra", "heisenberg", "abelian", "h2"],
            )
            sp.add_argument("--p", type=int, default=5)
            sp.add_argument("--s", type=int, default=1)
            sp.add_argument("--n", type=int, default=3)
            sp.add_argument("--q", type=int, default=0)
            sp.add_argument("--dim", type=int, default=1)
            sp.add_argument(
                "--aij",
                help="fakeheis coefficients 'i:j:c,...' (prime-field c; "
                "antisymmetric partner filled in)",
            )
            sp.add_argument("--file")
            sp.add_argument("--sigma", help="anti-involution matrix file (spas)")
        sp.add_argument("--psi", type=int, default=1, help="psi(1) = zeta_p^k")
        sp.add_argument("--out")
        sp.add_argument("--max-order", type=int, default=20000)

    sp = sub.add_parser("validate", help="validate a Lie ring or algebra")
    add_common(sp)

    sp = sub.add_parser("chartable", help="orbit-method character table")
    add_common(sp)
    sp.add_argument("--oracle", action="store_true", help="compare with Dixon")

    sp = sub.add_parser("orbits", help="coadjoint orbit census")
    add_common(sp)

    sp = sub.add_parser("packets", help="base-change / L-packet report")
    add_common(sp)
    sp.add_argument("--level", type=int, default=1)

    sp = sub.add_parser("polarize", help="Vergne and quasi-polarizations at f")
    add_common(sp)
    sp.add_argument("--f", required=True, help="comma-separated dual vector")

    sp = sub.add_parser("golden", help="USp4 golden-table suite")
    add_common(sp, family=False)
    sp.add_argument("--family", choices=["usp4"], default="usp4")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--oracle", action="store_true")

    sp = sub.add_parser("counterexamples", help="the class>=3 counterexample battery")
    add_common(sp, family=False)
    sp.add_argument("--p", type=int, default=5)
    return ap


def load_ring(args):
    fam = getattr(args, "family", None)
    if fam == "spas":
        if not args.file or not args.sigma:
            raise InputError("spas needs --file <algebra> and --sigma <matrix>")
        with open(args.file) as fh:
            alg = ringio.parse_algebra(fh.read())
        with open(args.sigma) as fh:
            sigma = ringio.parse_matrix(fh.read())
        return families.sp_a_sigma(alg, sigma)
    if args.file:
        with open(args.file) as fh:
            obj = ringio.parse_spec(fh.read())
        return obj
    if fam is None:
        raise InputError("need --family or --file")
    if fam == "fakeheis":
        return families.fake_heisenberg_scheme(
            args.p, args.s, coeffs=_parse_aij(args)
        ).at_level(1)
    if fam == "ul":
        q = args.q or args.p
        p, s = families._split_prime_power(q)
        return families.ul_lie_scheme(args.n, p, s).at_level(1)
    if fam == "heisenberg":
        from .liering import heisenberg_ring

        return heisenberg_ring(args.p)
    if fam == "abelian":
        return families.abelian_scheme(args.p, args.s, args.dim).at_level(1)
    if fam == "h2":
        return battery.appendix_h2_ring(args.p)
    if fam == "usp4":
        raise InputError("usp4 is served by the 'golden' subcommand")
    raise InputError("unknown family %r" % fam)


def _parse_aij(args):
    """Optional fake-Heisenberg coefficients: 'i:j:c,...' with c mod p;
    the antisymmetric partner is filled in automatically."""
    spec = getattr(args, "aij", None)
    if not spec:
        return None
    out = {}
    for tok in spec.split(","):
        i, j, c = (int(t) for t in tok.split(":"))
        out[(i, j)] = c % args.p
        out.setdefault((j, i), (-c) % args.p)
    return out


def load_scheme(args):
    fam = getattr(args, "family", None)
    if fam == "fakeheis":
        return families.fake_heisenberg_scheme(args.p, args.s, coeffs=_parse_aij(args))
    if fam == "ul":
        q = args.q or args.p
        p, s = families._split_prime_power(q)
        return families.ul_lie_scheme(args.n, p, s)
    if fam == "abelian":
        return families.abelian_scheme(args.p, args.s, args.dim)
    raise InputError("packets need a family defined over F_q (fakeheis/ul/abelian)")


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    obj = load_ring(args)
    if isinstance(obj, families.AssocAlgebra):
        _emit(args, "algebra ok dim=%d nil_index=%d\n" % (obj.dim, obj.nil_index))
        return
    from .groups import FiniteGroup

    if isinstance(obj, FiniteGroup):
        obj.spot_check_axioms()
        _emit(args, "group ok order=%d\n" % obj.n)
        return
    rep = obj.validate()
    lines = [
        "ring p=%d dim=%d" % (obj.p, obj.dim),
        "valid %s" % rep.ok,
        "class %s" % rep.nilpotence_class,
        "lazard_ok %s" % rep.lazard_ok,
    ]
    if rep.fq_bilinear is not None:
        lines.append("fq_bilinear %s" % rep.fq_bilinear)
    for f in rep.failures:
        lines.append("failure %s %s" % f)
    _emit(args, "\n".join(lines) + "\n")
    if not rep.ok:
        raise VerificationError("ring invariants fail")


def cmd_chartable(args):
    from .groups import FiniteGroup

    ring = load_ring(args)
    if isinstance(ring, (families.AssocAlgebra, FiniteGroup)):
        G = (
            ring
            if isinstance(ring, FiniteGroup)
            else families.algebra_group(ring, spot_check=False)
        )
        if G.n > args.max_order:
            raise InputError("group order exceeds --max-order")
        table = dixon_table(G, max_order=args.max_order)
    else:
        table, _ = orbit_method_table(ring, psi_k=args.psi)
        if args.oracle:
            G = lazard_group(ring)
            if G.n > args.max_order:
                raise InputError("group order exceeds --max-order for the oracle")
            oracle = dixon_table(G, max_order=args.max_order)
            if not table.equals_as_set(oracle):
                raise VerificationError("orbit-method table differs from the oracle")
    table.verify()
    _emit(args, table.to_csv())


def cmd_orbits(args):
    ring = load_ring(args)
    if isinstance(ring, families.AssocAlgebra):
        raise InputError("orbit census needs a Lie ring")
    oset = coadjoint_orbits(ring, psi_k=args.psi)
    fdims = [None] * len(oset)
    if getattr(ring, "scheme", None) is not None:
        try:
            _, rep = packets.base_change_and_packets(ring.scheme, 1, psi_k=args.psi)
            fdims = rep.fdim_estimates()
        except (ValueError, AssertionError):
            pass  # growth estimate unavailable; column stays blank
    # orbit-stabilizer under Lazard: |orbit| = p^(dim g - dim g^f)
    stabilizer_dims = ring.dim - 2 * oset.half_logs
    lines = ["orbit_id,base_point,size,stabilizer_dim,fdim_estimate"]
    for i, (point, size, stab) in enumerate(
        zip(oset.base_points.tolist(), oset.sizes.tolist(), stabilizer_dims.tolist())
    ):
        lines.append(
            "%d,%s,%d,%d,%s"
            % (i, " ".join(map(str, point)), size, stab, fdims[i] if fdims[i] is not None else "")
        )
    _emit(args, "\n".join(lines) + "\n")


def cmd_packets(args):
    scheme = load_scheme(args)
    _, rep = packets.base_change_and_packets(scheme, args.level, psi_k=args.psi)
    _emit(args, rep.to_csv())


def cmd_polarize(args):
    ring = load_ring(args)
    f = np.array([int(t) for t in args.f.split(",")], dtype=np.int64)
    if len(f) != ring.dim:
        raise InputError("--f needs %d components" % ring.dim)
    flag = polar.flag_from_weights(ring)
    pol_d = polar.vergne_polarization(ring, flag, f, "direct")
    pol_r = polar.vergne_polarization(ring, flag, f, "recursive")
    if not (pol_d.space == pol_r.space):
        raise VerificationError("direct and recursive Vergne disagree")
    chain, term_ring, term_f, embed = polar.quasi_polarization(ring, f)
    lines = [
        "f %s" % ",".join(str(int(v)) for v in f),
        "vergne_dim %d" % pol_d.dim,
    ]
    for row in pol_d.space.rows:
        lines.append("vergne_row %s" % " ".join(str(int(v)) for v in row))
    lines.append("quasi_chain_dims %s" % " ".join(str(s.dim) for s in chain))
    _emit(args, "\n".join(lines) + "\n")


def cmd_golden(args):
    q = args.q
    lines = []
    even = q & (q - 1) == 0 and q > 1  # power of 2
    # the oracle runs on USp4(F_q), q^4 elements: refuse before any table
    if even and args.oracle and q**4 > args.max_order:
        raise InputError("oracle over budget at q=%d" % q)
    if not even and q**4 > args.max_order:
        raise InputError("group order %d exceeds the oracle budget %d" % (q**4, args.max_order))
    if even:
        table = families.usp4_lusztig_table(q, psi_k=args.psi)
        table.verify()
        counts = table.degree_multiset()
        expected = {1: q * q, q: 2 * (q - 1)}
        if q > 2:
            expected[q // 2] = 4 * (q - 1) * (q - 1)
        else:
            expected[1] += 4 * (q - 1) * (q - 1)
        if counts != expected:
            raise VerificationError("Lusztig degree counts are off: %s" % counts)
        lines.append("lusztig_counts %s" % sorted(counts.items()))
        if args.oracle:
            G = families.usp4(q, spot_check=False)
            oracle = dixon_table(G, max_order=args.max_order)
            if not table.equals_as_set(oracle):
                raise VerificationError("Lusztig table differs from the oracle")
            lg = families.usp4_little_groups_table(q)
            if not table.equals_as_set(lg):
                raise VerificationError("little-groups table differs")
            lines.append("oracle_match True")
            lines.append("little_groups_match True")
    else:
        G = families.usp4_via_sp(q)
        table = dixon_table(G, max_order=args.max_order)
        table.verify()
        degs = set(table.degrees)
        powers = {q**k for k in range(8)}
        if not degs <= powers:
            raise VerificationError("odd-q degrees are not powers of q: %s" % degs)
        lines.append("order %d" % G.n)
        lines.append("degrees %s" % sorted(table.degree_multiset().items()))
        lines.append("powers_of_q True")
    _emit(args, "\n".join(lines) + "\n")


def cmd_counterexamples(args):
    res = battery.full_battery(args.p)
    lines = []
    ok = True

    def mark(name, refuted, expect=True):
        nonlocal ok
        verdict = "REFUTED" if refuted else "HOLDS"
        lines.append("%s %s" % (name, verdict))
        if refuted != expect:
            ok = False

    mark("statement1_multiple_of_rho", res["statement1"]["refuted"])
    mark("statement2_extends_to_polarization", res["statement2"]["refuted"])
    mark("statement3_6_module_property", res["statement36"]["refuted"])
    mark("statement3_module_structure_pair", res["statement3_pair"]["refuted"])
    mark("statement7_perm_vs_tensor_class4", res["statement7_class4"]["refuted"])
    lines.append(
        "statement7_class_le3 HOLDS_ON %d RINGS %s"
        % (res["statement7_class3"]["count"], res["statement7_class3"]["all_hold"])
    )
    if not res["statement7_class3"]["all_hold"]:
        ok = False
    lines.append("class2_statements_hold %s" % res["class2_module_property"]["all_hold"])
    if not res["class2_module_property"]["all_hold"]:
        ok = False
    lines.append("parabola_fibers_equal %s" % res["parabola"]["equal"])
    if not res["parabola"]["equal"]:
        ok = False
    mark("veronese_images_equal", res["veronese"]["refuted"])
    _emit(args, "\n".join(lines) + "\n")
    if not ok:
        raise VerificationError("battery outcome differs from the expected verdicts")


COMMANDS = {
    "validate": cmd_validate,
    "chartable": cmd_chartable,
    "orbits": cmd_orbits,
    "packets": cmd_packets,
    "polarize": cmd_polarize,
    "golden": cmd_golden,
    "counterexamples": cmd_counterexamples,
}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except (ringio.ParseError, FileNotFoundError, ValueError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except (VerificationError, AssertionError) as e:
        print("verification failure: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
