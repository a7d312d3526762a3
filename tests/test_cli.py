import argparse
import subprocess
import sys
import time

import pytest

from nilorbit import families, linalg, packets, ringio
from nilorbit.cli import KINDS, build_parser, main
from nilorbit.liering import heisenberg_ring

RUN = [sys.executable, "-m", "nilorbit"]


def run_cli(args):
    return subprocess.run(
        RUN + args, capture_output=True, text=True, timeout=600
    )


def test_validate_family(capsys):
    assert main(["validate", "--family", "heisenberg", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "valid True" in out and "class 2" in out


def test_validate_file_error(tmp_path):
    f = tmp_path / "bad.ring"
    f.write_text("liering p=5 dim=3\nbracket 1 2 = 3:1\nbracket 1 3 = 1:1\n")
    assert main(["validate", "--file", str(f)]) == 2


def test_chartable_with_oracle(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(
        ["chartable", "--family", "heisenberg", "--p", "3", "--oracle", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("rep,")
    assert len(text.strip().split("\n")) == 2 + 11  # two headers + 11 rows


def test_chartable_ul_oracle_11_rows(tmp_path):
    out = tmp_path / "ul.csv"
    code = main(
        [
            "chartable",
            "--family",
            "ul",
            "--n",
            "3",
            "--q",
            "3",
            "--oracle",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 13


def test_orbits_census(capsys):
    assert main(["orbits", "--family", "heisenberg", "--p", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("orbit_id,")
    assert len(lines) == 1 + 11


def test_orbits_census_with_tower_levels(capsys):
    # the functional-dimension estimates embed F_9 into higher tower levels
    assert main(["orbits", "--family", "fakeheis", "--p", "3", "--s", "2"]) == 0
    assert capsys.readouterr().out.startswith("orbit_id,")


def test_packets_cli(capsys):
    assert main(["packets", "--family", "fakeheis", "--p", "3", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "packet_id" in out
    sizes = [int(line.split(",")[5]) for line in out.strip().split("\n")[1:]]
    assert max(sizes) == 3


def test_polarize_cli(capsys):
    assert main(["polarize", "--family", "h2", "--p", "5", "--f", "0,0,0,1"]) == 0
    out = capsys.readouterr().out
    assert "vergne_dim 3" in out


def test_spas_family(tmp_path, capsys):
    A, S = families.usp4_flag_algebra(2)
    alg_file = tmp_path / "flag.alg"
    sig_file = tmp_path / "sigma.mat"
    alg_file.write_text(ringio.emit_algebra(A))
    sig_file.write_text(ringio.emit_matrix(S))
    assert (
        main(["validate", "--family", "spas", "--file", str(alg_file), "--sigma", str(sig_file)])
        == 0
    )
    assert "group ok order=16" in capsys.readouterr().out
    assert (
        main(["chartable", "--family", "spas", "--file", str(alg_file), "--sigma", str(sig_file)])
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("rep,") and len(out.strip().split("\n")) >= 3


def test_golden_q2(capsys):
    assert main(["golden", "--q", "2", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle_match True" in out


def test_golden_q3_odd(capsys):
    assert main(["golden", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "powers_of_q True" in out


def test_counterexamples_battery(capsys):
    assert main(["counterexamples"]) == 0
    out = capsys.readouterr().out
    for line in (
        "statement1_multiple_of_rho REFUTED",
        "statement2_extends_to_polarization REFUTED",
        "statement3_6_module_property REFUTED",
        "statement7_perm_vs_tensor_class4 REFUTED",
        "parabola_fibers_equal True",
        "veronese_images_equal REFUTED",
    ):
        assert line in out


def test_deterministic_output():
    r1 = run_cli(["chartable", "--family", "heisenberg", "--p", "3"])
    r2 = run_cli(["chartable", "--family", "heisenberg", "--p", "3"])
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    b1 = run_cli(["packets", "--family", "fakeheis", "--p", "3", "--s", "1"])
    b2 = run_cli(["packets", "--family", "fakeheis", "--p", "3", "--s", "1"])
    assert b1.returncode == 0 and b1.stdout == b2.stdout


def test_exit_codes():
    assert main(["validate", "--family", "ul", "--n", "4", "--q", "3"]) in (0,)
    # input error: missing family and file
    assert main(["chartable"]) == 2
    # verification failure path: class >= p ring through chartable
    assert main(["chartable", "--family", "ul", "--n", "4", "--q", "3"]) == 2


def test_golden_oracle_budget_is_checked_first(capsys):
    # USp4(F_16) has 65,536 elements: refused before the Lusztig table is built
    start = time.perf_counter()
    assert main(["golden", "--q", "16", "--oracle"]) == 2
    assert time.perf_counter() - start < 30
    assert capsys.readouterr().err == "input error: group order 65536 exceeds the oracle budget 20000\n"
    # the odd-q branch always runs the oracle
    assert main(["golden", "--q", "3", "--max-order", "80"]) == 2
    assert capsys.readouterr().err == "input error: group order 81 exceeds the oracle budget 80\n"


def test_out_of_budget_inputs_exit_2(tmp_path, capsys):
    assert main(["orbits", "--family", "ul", "--n", "5", "--q", "7"]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: family ul --n 5 --q 7: orbit enumeration over 7^10 points"
    )
    # the oracle budget has one message, from the oracle, on every input kind
    # (after the parameters that chose a family input)
    args = ["chartable", "--family", "ul", "--n", "4", "--q", "5", "--oracle", "--max-order", "100"]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "input error: family ul --n 4 --q 5: group order 15625 exceeds the oracle budget 100\n"
    )
    alg, sig = _spas_files(tmp_path)
    for args, n in ((["--file", alg], 3**6), (["--family", "spas", "--file", alg, "--sigma", sig], 3**4)):
        assert main(["chartable", *args, "--max-order", "80"]) == 2
        assert capsys.readouterr().err == "input error: group order %d exceeds the oracle budget 80\n" % n
    # USp4(F_27) as Sp(A, sigma): 3^18 points of A to scan, beyond the dense budget
    A, S = families.usp4_flag_algebra(27)
    big_alg, big_sig = tmp_path / "big.alg", tmp_path / "big.mat"
    big_alg.write_text(ringio.emit_algebra(A))
    big_sig.write_text(ringio.emit_matrix(S))
    assert main(["validate", "--family", "spas", "--file", str(big_alg), "--sigma", str(big_sig)]) == 2
    assert capsys.readouterr().err.startswith("input error: Sp(A, sigma) scan over 3^18 points")


def test_malformed_ring_headers_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.ring"
    for header in ("liering p=4 dim=3", "liering p=0 dim=2", "liering p=1 dim=2",
                   "algebra p=4 dim=3", "liering p=5 dim=100000", "liering p=5 dim=0",
                   "liering p=3 dim=2 q=9", "liering p=3 p=5 dim=2", "algebra p=3 dim=2 s=1"):
        f.write_text(header + "\n")
        assert main(["validate", "--file", str(f)]) == 2, header
        assert capsys.readouterr().err.startswith("input error: line 1:"), header
    # a key the format does not read is refused, not ignored
    f.write_text("liering p=3 dim=2 q=1000 foo=7\n")
    assert main(["validate", "--file", str(f)]) == 2
    assert capsys.readouterr().err == "input error: line 1: unexpected header field 'q=1000'\n"
    # a fresh interpreter too: the message, and no traceback
    f.write_text("liering p=4 dim=3\nbracket 1 2 = 3:1\n")
    r = run_cli(["validate", "--file", str(f)])
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "input error: line 1: p=4 is not a prime\n"


_SIGMA = ringio.emit_matrix(families.usp4_flag_algebra(2)[1]).splitlines()


@pytest.mark.parametrize(
    "sigma, message",
    [
        ("", "input error: line 1: empty input"),
        ("\n".join(["matrix"] + _SIGMA[1:]), "input error: line 1: header needs dim="),
        ("matrix dim=x\n", "input error: line 1: 'x' is not an integer"),
        ("\n".join(["matrix dim=6 p=2"] + _SIGMA[1:]), "input error: line 1: unexpected header field 'p=2'"),
        ("\n".join(_SIGMA[:-1]), "input error: line 7: matrix truncated: 5 of 6 rows"),
        ("\n".join(_SIGMA[:3] + ["1 0 x 0 0 0"] + _SIGMA[4:]), "input error: line 4: 'x' is"),
        ("\n".join(_SIGMA[:3] + ["1 0 %d 0 0 0" % 10**23] + _SIGMA[4:]),
         "input error: line 4: matrix entry 100000000000000000000000 does not fit int64"),
        ("\n".join(_SIGMA + ["1 0 0 0 0 0"]), "input error: line 8: unexpected line"),
        ("matrix dim=2\n1 0\n0 1\n", "input error: sigma must be a 6 x 6 matrix"),
    ],
    ids=["empty", "no-dim", "bad-dim", "extra-key", "truncated", "bad-entry", "big-entry",
         "extra-row", "wrong-size"],
)
def test_malformed_sigma_exits_2_with_its_line(tmp_path, capsys, sigma, message):
    alg_file, sig_file = tmp_path / "flag.alg", tmp_path / "sigma.mat"
    alg_file.write_text(ringio.emit_algebra(families.usp4_flag_algebra(2)[0]))
    sig_file.write_text(sigma)
    args = ["validate", "--family", "spas", "--file", str(alg_file), "--sigma", str(sig_file)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("liering p=3 dim=3\nbracket 1 2 = 3:x\n", "input error: line 2: 'x' is not an integer"),
        ("liering p=3 dim=3\nbracket 1 y = 3:1\n", "input error: line 2: 'y' is not an integer"),
        ("liering p=3 dim=x\n", "input error: line 1: 'x' is not an integer"),
        ("algebra p=3 dim=2\n\nprod 1 1 = 2:1.5\n", "input error: line 3: '1.5' is not"),
        ("liering p=3 dim=2\nfrobenius\n1 0\n0 z\n", "input error: line 4: 'z' is not"),
        ("liering p=3 dim=2\nfrobenius\n1 0\n0 99999999999999999999999\n",
         "input error: line 4: matrix entry 99999999999999999999999 does not fit int64"),
        # whole-object failures carry no line number
        ("liering p=5 dim=3\nbracket 1 2 = 3:1\nbracket 1 3 = 1:1\n",
         "input error: ring invariants fail: [('jacobi'"),
        ("algebra p=2 dim=2\nprod 1 1 = 2:1\nprod 1 2 = 1:1\n",
         "input error: product is not associative"),
    ],
    ids=["coefficient", "index", "dim", "fraction", "frobenius", "big-frobenius", "jacobi",
         "non-associative"],
)
def test_malformed_ring_exits_2_with_its_line(tmp_path, capsys, text, message):
    f = tmp_path / "bad.ring"
    f.write_text(text)
    assert main(["validate", "--file", str(f)]) == 2
    assert capsys.readouterr().err.startswith(message)


# -- one input dispatch: kinds per subcommand, options only where read ---------


def _spas_files(tmp_path):
    A, S = families.usp4_flag_algebra(3)
    alg, sig = tmp_path / "flag.alg", tmp_path / "sigma.mat"
    alg.write_text(ringio.emit_algebra(A))
    sig.write_text(ringio.emit_matrix(S))
    return str(alg), str(sig)


def _assert_input_error(r):
    assert r.returncode == 2 and r.stdout == "", r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1].startswith("input error:"), r.stderr


def test_inputs_of_a_kind_a_subcommand_does_not_take_exit_2(tmp_path):
    alg, sig = _spas_files(tmp_path)
    # a group for the orbit census or the polarizations: not a choice there
    for args in (["orbits"], ["polarize", "--f", "0,0,0,0,0,0"]):
        r = run_cli(args + ["--family", "spas", "--file", alg, "--sigma", sig])
        _assert_input_error(r)
        assert "invalid choice: 'spas'" in r.stderr
    # an algebra file: refused by the loader
    r = run_cli(["polarize", "--file", alg, "--f", "0,0,0,0,0,0"])
    _assert_input_error(r)
    assert r.stderr == "input error: polarize takes ring input, not algebra\n"


def test_family_and_file_are_exclusive(tmp_path, capsys):
    ring = tmp_path / "h.ring"
    ring.write_text(ringio.emit_liering(heisenberg_ring(3)))
    assert main(["validate", "--family", "ul", "--n", "4", "--q", "5", "--file", str(ring)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: --family and --file are exclusive (only spas takes both)\n"
    # --sigma is read by spas alone
    alg, sig = _spas_files(tmp_path)
    assert main(["chartable", "--file", str(ring), "--sigma", sig]) == 2
    assert capsys.readouterr().err == "input error: --sigma is read only with --family spas\n"
    # packets takes a scheme, so it has no --file to ignore
    r = run_cli(["packets", "--family", "abelian", "--p", "3", "--file", str(ring)])
    _assert_input_error(r)
    assert "unrecognized arguments: --file" in r.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["validate", "--family", "heisenberg", "--psi", "3"], "unrecognized arguments: --psi"),
        (["polarize", "--family", "h2", "--f", "0,0,0,1", "--psi", "2"], "unrecognized arguments: --psi"),
        (["counterexamples", "--psi", "2"], "unrecognized arguments: --psi"),
        (["counterexamples", "--p", "3"], "unrecognized arguments: --p 3"),
        (["counterexamples", "--p", "7"], "unrecognized arguments: --p 7"),
        (["validate", "--family", "heisenberg", "--max-order", "9"], "unrecognized arguments: --max-order"),
        (["orbits", "--family", "heisenberg", "--max-order", "9"], "unrecognized arguments: --max-order"),
        (["packets", "--family", "fakeheis", "--p", "3", "--max-order", "9"], "unrecognized arguments: --max-order"),
        (["orbits", "--family", "heisenberg", "--sigma", "s.mat"], "unrecognized arguments: --sigma"),
        (["chartable", "--family", "algebra", "--file", "FILE"], "invalid choice: 'algebra'"),
        (["chartable", "--family", "usp4", "--q", "4"], "invalid choice: 'usp4'"),
        (["golden", "--q", "2", "--family", "usp4"], "unrecognized arguments: --family"),
    ],
    ids=["validate-psi", "polarize-psi", "battery-psi", "battery-p3", "battery-p7",
         "validate-max-order", "orbits-max-order",
         "packets-max-order", "orbits-sigma", "algebra-choice", "usp4-choice", "golden-family"],
)
def test_removed_options_and_dead_choices_exit_2(tmp_path, args, message):
    ring = tmp_path / "h.ring"
    ring.write_text(ringio.emit_liering(heisenberg_ring(3)))
    r = run_cli([str(ring) if a == "FILE" else a for a in args])
    _assert_input_error(r)
    assert message in r.stderr


def _options(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.option_strings[0] for a in sp._actions if a.dest != "help"}
        for name, sp in sub.choices.items()
    }


def test_each_subcommand_offers_only_the_options_it_reads():
    family = {"--family", "--p", "--s", "--n", "--q", "--dim", "--aij"}
    assert _options(build_parser()) == {
        "validate": family | {"--file", "--sigma", "--out"},
        "chartable": family | {"--file", "--sigma", "--psi", "--out", "--max-order", "--oracle"},
        "orbits": family | {"--file", "--psi", "--out"},
        "packets": family | {"--psi", "--out", "--level"},
        "polarize": family | {"--file", "--out", "--f"},
        "golden": {"--q", "--psi", "--out", "--max-order", "--oracle"},
        "counterexamples": {"--out"},
    }
    assert sum(map(len, _options(build_parser()).values())) == 59
    # a subcommand's families are those of the kinds it takes
    choices = {
        name: next(a.choices for a in sp._actions if a.dest == "family")
        for name, sp in next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices.items()
        if name in KINDS
    }
    assert choices == {
        "validate": ["fakeheis", "ul", "abelian", "heisenberg", "h2", "spas"],
        "chartable": ["fakeheis", "ul", "abelian", "heisenberg", "h2", "spas"],
        "orbits": ["fakeheis", "ul", "abelian", "heisenberg", "h2"],
        "polarize": ["fakeheis", "ul", "abelian", "heisenberg", "h2"],
        "packets": ["fakeheis", "ul", "abelian"],
    }


def test_non_prime_powers_exit_2(capsys):
    # a refused family input names the parameters that chose it
    for args, given in ((["validate", "--family", "ul", "--q", "6"], "family ul --n 3 --q 6: "),
                        (["golden", "--q", "12"], "")):
        assert main(args) == 2
        assert capsys.readouterr().err == "input error: %s%s is not a prime power\n" % (given, args[-1])


def test_orbits_reports_a_failed_base_change_check(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("base change is not Fr-equivariant")

    monkeypatch.setattr(packets, "_check_fr_equivariance", broken)
    assert main(["orbits", "--family", "fakeheis", "--p", "3", "--s", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: base change is not Fr-equivariant\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["validate", "--family", "fakeheis", "--p", "3", "--n", "9", "--dim", "7", "--q", "11"],
         "--n --q --dim not read by family fakeheis"),
        (["validate", "--family", "ul", "--n", "3", "--p", "3", "--q", "25"], "--p not read by family ul"),
        (["orbits", "--family", "heisenberg", "--p", "3", "--s", "1"], "--s not read by family heisenberg"),
        (["validate", "--family", "heisenberg", "--q", "0"], "--q not read by family heisenberg"),
        (["packets", "--family", "abelian", "--p", "3", "--aij", "1:2:1"], "--aij not read by family abelian"),
        (["validate", "--family", "spas", "--file", "ALG", "--sigma", "SIG", "--p", "3"],
         "--p not read by family spas"),
        (["polarize", "--file", "RING", "--f", "0,0,1", "--p", "3"], "--p not read with --file"),
    ],
    ids=["fakeheis", "ul-p-and-q", "heisenberg", "heisenberg-zero", "abelian", "spas", "file"],
)
def test_family_parameters_the_family_does_not_read_exit_2(tmp_path, capsys, args, message):
    alg, sig = _spas_files(tmp_path)
    ring = tmp_path / "h.ring"
    ring.write_text(ringio.emit_liering(heisenberg_ring(3)))
    paths = {"ALG": alg, "SIG": sig, "RING": str(ring)}
    assert main([paths.get(a, a) for a in args]) == 2
    assert capsys.readouterr().err == "input error: %s\n" % message


def test_family_parameters_keep_their_defaults(capsys):
    # a parameter the family reads takes its old default when not given
    for short, full in (
        (["--family", "ul"], ["--family", "ul", "--n", "3", "--q", "5"]),
        (["--family", "fakeheis"], ["--family", "fakeheis", "--p", "5", "--s", "1"]),
        (["--family", "abelian"], ["--family", "abelian", "--p", "5", "--s", "1", "--dim", "1"]),
    ):
        assert main(["validate", *short]) == 0
        out = capsys.readouterr().out
        assert main(["validate", *full]) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "args, message",
    [
        (["chartable", "--file", "ALG", "--oracle"], "--oracle not read on algebra input"),
        (["chartable", "--file", "ALG", "--psi", "1"], "--psi not read on algebra input"),
        (["chartable", "--family", "spas", "--file", "ALG", "--sigma", "SIG", "--psi", "2", "--oracle"],
         "--psi --oracle not read on group input"),
        (["golden", "--q", "3", "--psi", "2"], "--psi not read at odd q"),
        (["golden", "--q", "3", "--oracle"], "--oracle not read at odd q"),
        (["chartable", "--family", "heisenberg", "--p", "3", "--max-order", "9"],
         "--max-order not read on ring input without --oracle"),
        (["golden", "--q", "4", "--max-order", "9"], "--max-order not read at even q without --oracle"),
    ],
    ids=["algebra-oracle", "algebra-psi", "group-psi-oracle", "golden-odd-psi", "golden-odd-oracle",
         "ring-max-order", "golden-even-max-order"],
)
def test_options_read_on_only_some_paths_exit_2(tmp_path, capsys, args, message):
    alg, sig = _spas_files(tmp_path)
    assert main([{"ALG": alg, "SIG": sig}.get(a, a) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: %s\n" % message


@pytest.mark.parametrize(
    "args, given, p, k",
    [
        (["orbits", "--family", "heisenberg", "--p", "3", "--psi", "0"], "family heisenberg --p 3: ", 3, 0),
        (["chartable", "--family", "heisenberg", "--p", "3", "--psi", "3"], "family heisenberg --p 3: ", 3, 3),
        (["packets", "--family", "fakeheis", "--p", "3", "--psi", "6"], "family fakeheis --p 3 --s 1: ", 3, 6),
        (["golden", "--q", "4", "--psi", "2"], "", 2, 2),
    ],
    ids=["orbits", "chartable", "packets", "golden"],
)
def test_trivial_additive_character_exits_2(capsys, args, given, p, k):
    # psi(1) = zeta_p^k with k = 0 mod p is no character the orbit method can use
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: %sadditive character psi(1) = zeta_%d^%d is trivial\n" % (given, p, k)


def test_orbits_leaves_the_estimate_blank_past_the_ladder_budget(monkeypatch, capsys):
    # with no level to climb to, the ladder gives up: a budget, not a fault
    monkeypatch.setattr(packets, "MAX_LEVEL", 1)
    with pytest.raises(ValueError, match="did not stabilize within level 1"):
        packets.base_change_and_packets(families.fake_heisenberg_scheme(3, 1), 1)
    assert main(["orbits", "--family", "fakeheis", "--p", "3", "--s", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 9 and all(line.endswith(",") for line in lines[1:])


@pytest.mark.parametrize(
    "args, message",
    [
        (["validate", "--family", "ul", "--n", "40", "--q", "5"],
         "family ul --n 40 --q 5: UL_40(F_5) has dimension 780 over F_5: "
         "its 780^3 structure constants exceed the tensor budget 16777216"),
        (["packets", "--family", "fakeheis", "--p", "3", "--s", "40"],
         "family fakeheis --p 3 --s 40: root search over 3^40 points exceeds the root-scan budget 65536"),
        (["chartable", "--family", "fakeheis", "--p", "3", "--s", "40"],
         "family fakeheis --p 3 --s 40: orbit enumeration over 3^80 points exceeds the dense budget"),
        (["orbits", "--family", "ul", "--n", "5", "--q", "7"],
         "family ul --n 5 --q 7: orbit enumeration over 7^10 points exceeds the dense budget"),
        (["packets", "--family", "abelian", "--p", "2", "--dim", "300"],
         "family abelian --p 2 --s 1 --dim 300: Ga^300 at level 2 has dimension 600 over F_2: "
         "its 600^3 structure constants exceed the tensor budget 16777216"),
    ],
    ids=["ul-tensor", "fakeheis-root-scan", "fakeheis-dense", "ul-dense", "abelian-level-tensor"],
)
def test_family_inputs_beyond_a_budget_exit_2_naming_the_option(capsys, args, message):
    # a refusal names the options wherever it is raised: building the family
    # (a 3.5 GiB tensor), embedding the base field in level 2 (a 3^40-point
    # scan), enumerating the level-1 orbits, or a ladder level's tensor
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: %s\n" % message
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args, p, d, row",
    [
        (["orbits", "--family", "abelian", "--p", "2", "--s", "2", "--dim", "1"], 2, 2, "{i},{x},1,2,0"),
        (["orbits", "--family", "ul", "--n", "2", "--q", "4"], 2, 2, "{i},{x},1,2,0"),
        (["packets", "--family", "ul", "--n", "2", "--q", "4"], 2, 2, "{i},{x},1,0,{i},1,4"),
        (["packets", "--family", "abelian", "--p", "3", "--s", "3"], 3, 3, "{i},{x},1,0,{i},1,4"),
    ],
    ids=["orbits-abelian-f4", "orbits-ul-f4", "packets-ul-f4", "packets-abelian-f27"],
)
def test_base_change_composes_on_abelian_towers(capsys, args, p, d, row):
    # G_a over F_4 and F_27: the ladder's maps T_2^4 o T_1^2 and T_1^4 used to
    # disagree (exit 1, "base-change maps do not compose"); each of the q
    # one-point orbits is its own packet
    assert main(args) == 0
    captured = capsys.readouterr()
    points = [" ".join(map(str, x)) for x in linalg.all_vectors(d, p).tolist()]
    assert captured.out.split("\n")[1:] == [row.format(i=i, x=x) for i, x in enumerate(points)] + [""]
    assert captured.err == ""


@pytest.mark.parametrize("q, dim", [(2, 1), (8, 3)])
def test_orbits_fdim_at_p_2(capsys, q, dim):
    # UL_2(F_q) = F_q: q one-point orbits whose size never grows; at p = 2
    # the last two dense rounds share a level, which used to divide 0 by 0
    assert main(["orbits", "--family", "ul", "--n", "2", "--q", str(q)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert len(lines) == 1 + q and all(line.endswith(",1,%d,0" % dim) for line in lines[1:])
    assert captured.err == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["packets", "--family", "fakeheis", "--p", "5", "--s", "1", "--level", "0"],
         "--level must be >= 1, not 0"),
        (["packets", "--family", "fakeheis", "--p", "5", "--s", "1", "--level", "-1"],
         "--level must be >= 1, not -1"),
        (["validate", "--family", "fakeheis", "--p", "3", "--aij", "1,2,3"],
         "--aij takes 'i:j:c,...' with integers i, j, c, not '1'"),
        (["validate", "--family", "fakeheis", "--p", "3", "--aij", "1:0:1,0:1:x"],
         "--aij takes 'i:j:c,...' with integers i, j, c, not '0:1:x'"),
    ],
    ids=["level-0", "level-negative", "aij-no-colons", "aij-not-an-integer"],
)
def test_malformed_option_values_exit_2_naming_the_option(capsys, args, message):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: %s\n" % message
