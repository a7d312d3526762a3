"""Command-line surface.

Subcommands: validate, chartable, orbits, packets, polarize, golden,
counterexamples.  Input is a family (--family with its parameters) or a
ring/algebra file (--file), not both; only spas takes both, plus --sigma.
Each input has a kind (scheme, ring, algebra or group), and each
subcommand takes the kinds in KINDS and offers only the options it reads.
Outputs are CSV tables or line-oriented reports, deterministic for a fixed
invocation.  Exit codes: 0 success, 1 verification failure, 2 input error.
"""

import argparse
import sys

import numpy as np

from . import battery, families, linalg, packets, polar, ringio
from .dixon import dixon_table
from .liering import heisenberg_ring
from .orbits import coadjoint_orbits, lazard_group, orbit_method_table


class InputError(Exception):
    pass


class VerificationError(Exception):
    pass


def _read(path):
    with open(path) as fh:
        return fh.read()


def _parse_aij(args):
    """Optional fake-Heisenberg coefficients: 'i:j:c,...' with c mod p;
    the antisymmetric partner is filled in automatically."""
    if not args.aij:
        return None
    out = {}
    for tok in args.aij.split(","):
        i, j, c = (int(t) for t in tok.split(":"))
        out[(i, j)] = c % args.p
        out.setdefault((j, i), (-c) % args.p)
    return out


def _spas(args):
    if not args.file or not args.sigma:
        raise InputError("spas needs --file <algebra> and --sigma <matrix>")
    alg = ringio.parse_algebra(_read(args.file))
    return families.sp_a_sigma(alg, ringio.parse_matrix(_read(args.sigma)))


# family -> (kind, builder from the parsed options)
FAMILIES = {
    "fakeheis": ("scheme", lambda a: families.fake_heisenberg_scheme(a.p, a.s, coeffs=_parse_aij(a))),
    "ul": ("scheme", lambda a: families.ul_lie_scheme(a.n, *linalg.prime_power(a.q or a.p))),
    "abelian": ("scheme", lambda a: families.abelian_scheme(a.p, a.s, a.dim)),
    "heisenberg": ("ring", lambda a: heisenberg_ring(a.p)),
    "h2": ("ring", lambda a: battery.appendix_h2_ring(a.p)),
    "spas": ("group", _spas),
}

# subcommand -> the kinds of input it takes; --file gives a ring or an algebra
KINDS = {
    "validate": ("ring", "algebra", "group"),
    "chartable": ("ring", "algebra", "group"),
    "orbits": ("ring",),
    "polarize": ("ring",),
    "packets": ("scheme",),
}


def _served_as(kind, kinds):
    """A scheme is its level-1 ring wherever a ring is wanted."""
    return "ring" if kind == "scheme" and "scheme" not in kinds else kind


def load(args):
    """The subcommand's one input as (kind, object), of a kind it takes."""
    kinds = KINDS[args.command]
    fam, path = args.family, getattr(args, "file", None)
    if getattr(args, "sigma", None) and fam != "spas":
        raise InputError("--sigma is read only with --family spas")
    if fam is None:
        if path is None:
            raise InputError("need --family or --file")
        obj = ringio.parse_spec(_read(path))
        kind = "algebra" if isinstance(obj, families.AssocAlgebra) else "ring"
    elif path is not None and fam != "spas":
        raise InputError("--family and --file are exclusive (only spas takes both)")
    else:
        kind, build = FAMILIES[fam]
        obj = build(args)
        if _served_as(kind, kinds) != kind:
            kind, obj = "ring", obj.at_level(1)
    if kind not in kinds:
        raise InputError("%s takes %s input, not %s" % (args.command, " or ".join(kinds), kind))
    return kind, obj


class _Parser(argparse.ArgumentParser):
    """argparse whose refusals end like every other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, "input error: %s: %s\n" % (self.prog, message))


def build_parser():
    ap = _Parser(
        prog="nilorbit",
        description="characters of finite nilpotent groups via the orbit method",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, about, psi=False, max_order=False):
        sp = sub.add_parser(name, help=about)
        kinds = KINDS.get(name)
        if kinds:
            sp.add_argument(
                "--family",
                choices=[f for f, (k, _) in FAMILIES.items() if _served_as(k, kinds) in kinds],
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
            if "ring" in kinds:
                sp.add_argument("--file", help="ring or algebra file")
            if "group" in kinds:
                sp.add_argument("--sigma", help="anti-involution matrix file (spas)")
        if psi:
            sp.add_argument("--psi", type=int, default=1, help="psi(1) = zeta_p^k")
        sp.add_argument("--out")
        if max_order:
            sp.add_argument("--max-order", type=int, default=20000)
        return sp

    add("validate", "validate a Lie ring or algebra")
    sp = add("chartable", "orbit-method character table", psi=True, max_order=True)
    sp.add_argument("--oracle", action="store_true", help="compare with Dixon")
    add("orbits", "coadjoint orbit census", psi=True)
    sp = add("packets", "base-change / L-packet report", psi=True)
    sp.add_argument("--level", type=int, default=1)
    sp = add("polarize", "Vergne and quasi-polarizations at f")
    sp.add_argument("--f", required=True, help="comma-separated dual vector")
    sp = add("golden", "USp4 golden-table suite", psi=True, max_order=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--oracle", action="store_true")
    sp = add("counterexamples", "the class>=3 counterexample battery")
    sp.add_argument("--p", type=int, default=5)
    return ap


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    kind, obj = load(args)
    if kind == "algebra":
        _emit(args, "algebra ok dim=%d nil_index=%d\n" % (obj.dim, obj.nil_index))
        return
    if kind == "group":
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
    kind, obj = load(args)
    if kind == "ring":
        table, _ = orbit_method_table(obj, psi_k=args.psi)
        if args.oracle:
            G = lazard_group(obj)
            if G.n > args.max_order:
                raise InputError("group order exceeds --max-order for the oracle")
            oracle = dixon_table(G, max_order=args.max_order)
            if not table.equals_as_set(oracle):
                raise VerificationError("orbit-method table differs from the oracle")
    else:
        G = obj if kind == "group" else families.algebra_group(obj, spot_check=False)
        if G.n > args.max_order:
            raise InputError("group order exceeds --max-order")
        table = dixon_table(G, max_order=args.max_order)
    table.verify()
    _emit(args, table.to_csv())


def cmd_orbits(args):
    _, ring = load(args)
    oset = coadjoint_orbits(ring, psi_k=args.psi)
    fdims = [None] * len(oset)
    if getattr(ring, "scheme", None) is not None:
        try:
            _, rep = packets.base_change_and_packets(ring.scheme, 1, psi_k=args.psi)
            fdims = rep.fdim_estimates()
        except ValueError:
            pass  # over a level or ladder budget: the column stays blank
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
    _, scheme = load(args)
    _, rep = packets.base_change_and_packets(scheme, args.level, psi_k=args.psi)
    _emit(args, rep.to_csv())


def cmd_polarize(args):
    _, ring = load(args)
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
    even = linalg.prime_power(q)[0] == 2
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
