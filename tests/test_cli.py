import subprocess
import sys
import time

import pytest

from nilorbit import families, ringio
from nilorbit.cli import main

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
    assert main(["counterexamples", "--p", "5"]) == 0
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
    assert "input error: oracle over budget at q=16" in capsys.readouterr().err
    # the odd-q branch always runs the oracle
    assert main(["golden", "--q", "3", "--max-order", "80"]) == 2
    assert "input error: group order 81 exceeds the oracle budget 80" in capsys.readouterr().err


def test_out_of_budget_inputs_exit_2(capsys):
    assert main(["orbits", "--family", "ul", "--n", "5", "--q", "7"]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    args = ["chartable", "--family", "ul", "--n", "4", "--q", "5", "--oracle", "--max-order", "100"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("input error:")


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
        ("\n".join(_SIGMA + ["1 0 0 0 0 0"]), "input error: line 8: unexpected line"),
        ("matrix dim=2\n1 0\n0 1\n", "input error: sigma must be a 6 x 6 matrix"),
    ],
    ids=["empty", "no-dim", "bad-dim", "extra-key", "truncated", "bad-entry", "extra-row", "wrong-size"],
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
        # whole-object failures carry no line number
        ("liering p=5 dim=3\nbracket 1 2 = 3:1\nbracket 1 3 = 1:1\n",
         "input error: ring invariants fail: [('jacobi'"),
        ("algebra p=2 dim=2\nprod 1 1 = 2:1\nprod 1 2 = 1:1\n",
         "input error: product is not associative"),
    ],
    ids=["coefficient", "index", "dim", "fraction", "frobenius", "jacobi", "non-associative"],
)
def test_malformed_ring_exits_2_with_its_line(tmp_path, capsys, text, message):
    f = tmp_path / "bad.ring"
    f.write_text(text)
    assert main(["validate", "--file", str(f)]) == 2
    assert capsys.readouterr().err.startswith(message)
