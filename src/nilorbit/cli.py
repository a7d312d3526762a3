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
from .dixon import DEFAULT_MAX_ORDER, check_order, dixon_table
from .liering import heisenberg_ring
from .orbits import coadjoint_orbits, lazard_group, orbit_method_table


class InputError(Exception):
    pass


class VerificationError(Exception):
    pass


def _read(path):
    with open(path) as fh:
        return fh.read()


def _fakeheis(args):
    """The fake-Heisenberg scheme, with the optional coefficients --aij
    'i:j:c,...' (c mod p; the antisymmetric partner is filled in)."""
    coeffs = None
    if args.aij:
        coeffs = {}
        for tok in args.aij.split(","):
            try:
                i, j, c = (int(t) for t in tok.split(":"))
            except ValueError:
                raise InputError("--aij takes 'i:j:c,...' with integers i, j, c, not %r" % tok) from None
            coeffs[(i, j)] = c % args.p
            coeffs.setdefault((j, i), (-c) % args.p)
    return families.fake_heisenberg_scheme(args.p, args.s, coeffs=coeffs)


def _spas(args):
    if not args.file or not args.sigma:
        raise InputError("spas needs --file <algebra> and --sigma <matrix>")
    alg = ringio.parse_algebra(_read(args.file))
    return families.sp_a_sigma(alg, ringio.parse_matrix(_read(args.sigma)))


# family -> (kind, the parameters it reads, builder from the parsed options)
FAMILIES = {
    "fakeheis": ("scheme", ("p", "s", "aij"), _fakeheis),
    "ul": ("scheme", ("n", "q"), lambda a: families.ul_lie_scheme(a.n, *linalg.prime_power(a.q))),
    "abelian": ("scheme", ("p", "s", "dim"), lambda a: families.abelian_scheme(a.p, a.s, a.dim)),
    "heisenberg": ("ring", ("p",), lambda a: heisenberg_ring(a.p)),
    "h2": ("ring", ("p",), lambda a: battery.appendix_h2_ring(a.p)),
    "spas": ("group", (), _spas),
}

# family parameter -> the value a family that reads it takes when it is not given
PARAMETERS = {"p": 5, "s": 1, "n": 3, "q": 5, "dim": 1, "aij": None}

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


def _refuse_given(args, names, where):
    """Refuses the options among names that were given: they are not read where."""
    values = {k: getattr(args, k) for k in names}
    given = " ".join("--" + k for k, v in values.items() if v is not None and v is not False)
    if given:
        raise InputError("%s not read %s" % (given.replace("_", "-"), where))


def load(args):
    """The subcommand's one input as (kind, object), of a kind it takes."""
    kinds = KINDS[args.command]
    fam, path = args.family, getattr(args, "file", None)
    if getattr(args, "sigma", None) and fam != "spas":
        raise InputError("--sigma is read only with --family spas")
    reads = FAMILIES[fam][1] if fam else ()
    unread = [k for k in PARAMETERS if k not in reads]
    _refuse_given(args, unread, "by family %s" % fam if fam else "with --file")
    vars(args).update({k: PARAMETERS[k] for k in reads if getattr(args, k) is None})
    if fam is None:
        if path is None:
            raise InputError("need --family or --file")
        obj = ringio.parse_spec(_read(path))
        kind = "algebra" if isinstance(obj, families.AssocAlgebra) else "ring"
    elif path is not None and fam != "spas":
        raise InputError("--family and --file are exclusive (only spas takes both)")
    else:
        kind, _, build = FAMILIES[fam]
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
                choices=[f for f, (k, _, _) in FAMILIES.items() if _served_as(k, kinds) in kinds],
            )
            for k in ("p", "s", "n", "q", "dim"):
                sp.add_argument("--" + k, type=int)
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
            sp.add_argument("--psi", type=int, help="psi(1) = zeta_p^k (default 1)")
        sp.add_argument("--out")
        if max_order:
            sp.add_argument("--max-order", type=int)
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
    add("counterexamples", "the class>=3 counterexample battery, at p = 5")
    return ap


def _psi(args):
    """--psi, or 1 where it is not given."""
    return 1 if args.psi is None else args.psi


def _max_order(args):
    """--max-order, or the oracle's default budget where it is not given."""
    return DEFAULT_MAX_ORDER if args.max_order is None else args.max_order


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
        if not args.oracle:
            _refuse_given(args, ("max_order",), "on ring input without --oracle")
        table, _ = orbit_method_table(obj, psi_k=_psi(args))
        if args.oracle:
            oracle = dixon_table(lazard_group(obj), max_order=_max_order(args))
            if not table.equals_as_set(oracle):
                raise VerificationError("orbit-method table differs from the oracle")
    else:
        # the table is Dixon's: no additive character, and no other table
        _refuse_given(args, ("psi", "oracle"), "on %s input" % kind)
        G = obj if kind == "group" else families.algebra_group(obj, spot_check=False)
        table = dixon_table(G, max_order=_max_order(args))
    table.verify()
    _emit(args, table.to_csv())


def cmd_orbits(args):
    _, ring = load(args)
    oset = coadjoint_orbits(ring, psi_k=_psi(args))
    fdims = [None] * len(oset)
    if getattr(ring, "scheme", None) is not None:
        try:
            _, rep = packets.base_change_and_packets(ring.scheme, 1, psi_k=_psi(args))
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
    if args.level < 1:
        raise InputError("--level must be >= 1, not %d" % args.level)
    _, scheme = load(args)
    _, rep = packets.base_change_and_packets(scheme, args.level, psi_k=_psi(args))
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
    if not even:  # the table is Dixon's: no additive character, and no other table
        _refuse_given(args, ("psi", "oracle"), "at odd q")
    elif not args.oracle:
        _refuse_given(args, ("max_order",), "at even q without --oracle")
    # the oracle runs on USp4(F_q), q^4 elements: refuse before any table
    if args.oracle or not even:
        check_order(q**4, _max_order(args))
    if even:
        table = families.usp4_lusztig_table(q, psi_k=_psi(args))
        table.verify()
        counts = table.degree_multiset()
        expected = {1: q * q, q: 2 * (q - 1)}
        expected[q // 2] = expected.get(q // 2, 0) + 4 * (q - 1) ** 2  # q // 2 = 1 at q = 2
        if counts != expected:
            raise VerificationError("Lusztig degree counts are off: %s" % counts)
        lines.append("lusztig_counts %s" % sorted(counts.items()))
        if args.oracle:
            G = families.usp4(q, spot_check=False)
            oracle = dixon_table(G, max_order=_max_order(args))
            if not table.equals_as_set(oracle):
                raise VerificationError("Lusztig table differs from the oracle")
            lg = families.usp4_little_groups_table(q)
            if not table.equals_as_set(lg):
                raise VerificationError("little-groups table differs")
            lines.append("oracle_match True")
            lines.append("little_groups_match True")
    else:
        G = families.usp4_via_sp(q)
        table = dixon_table(G, max_order=_max_order(args))
        table.verify()
        degs = set(table.degrees)
        powers = {q**k for k in range(8)}
        if not degs <= powers:
            raise VerificationError("odd-q degrees are not powers of q: %s" % degs)
        lines.append("order %d" % G.n)
        lines.append("degrees %s" % sorted(table.degree_multiset().items()))
        lines.append("powers_of_q True")
    _emit(args, "\n".join(lines) + "\n")


def _refuted(name, report):
    """A report line for a statement the battery should refute, and whether it did."""
    return "%s %s" % (name, "REFUTED" if report["refuted"] else "HOLDS"), report["refuted"]


def cmd_counterexamples(args):
    res = battery.full_battery()
    c3, c2, parabola = res["statement7_class3"], res["class2_module_property"], res["parabola"]
    verdicts = [  # (report line, whether it is the expected verdict)
        _refuted("statement1_multiple_of_rho", res["statement1"]),
        _refuted("statement2_extends_to_polarization", res["statement2"]),
        _refuted("statement3_6_module_property", res["statement36"]),
        _refuted("statement3_module_structure_pair", res["statement3_pair"]),
        _refuted("statement7_perm_vs_tensor_class4", res["statement7_class4"]),
        ("statement7_class_le3 HOLDS_ON %(count)d RINGS %(all_hold)s" % c3, c3["all_hold"]),
        ("class2_statements_hold %s" % c2["all_hold"], c2["all_hold"]),
        ("parabola_fibers_equal %s" % parabola["equal"], parabola["equal"]),
        _refuted("veronese_images_equal", res["veronese"]),
    ]
    _emit(args, "".join(line + "\n" for line, _ in verdicts))
    if not all(ok for _, ok in verdicts):
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


def _chosen_by(args):
    """'family <name> --<param> <value> ...: ', the parameters that chose a
    family input, which its refusals name wherever they are raised; empty
    for any other input."""
    fam = getattr(args, "family", None)
    reads = FAMILIES[fam][1] if fam else ()
    given = ["--%s %s" % (k, getattr(args, k)) for k in reads if getattr(args, k) is not None]
    return "family %s %s: " % (fam, " ".join(given)) if given else ""


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except (InputError, FileNotFoundError, ValueError) as e:  # ringio.ParseError is a ValueError
        named = _chosen_by(args) if isinstance(e, ValueError) else ""
        print("input error: %s%s" % (named, e), file=sys.stderr)
        return 2
    except (VerificationError, AssertionError) as e:
        print("verification failure: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
