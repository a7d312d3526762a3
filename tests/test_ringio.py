import numpy as np
import pytest

from nilorbit import ringio
from nilorbit.battery import appendix_h2_ring
from nilorbit.families import strict_upper_algebra
from nilorbit.liering import heisenberg_ring

HEIS_TEXT = """liering p=3 dim=3
bracket 1 2 = 3:1
"""


def test_parse_heisenberg():
    ring = ringio.parse_liering(HEIS_TEXT)
    assert ring.p == 3 and ring.dim == 3
    assert ring.nilpotence_class() == 2


def test_roundtrip_liering():
    for ring in (heisenberg_ring(5), appendix_h2_ring(5)):
        text = ringio.emit_liering(ring)
        back = ringio.parse_liering(text)
        assert (back.constants == ring.constants).all()
        assert ringio.emit_liering(back) == text  # bit-exact


def test_roundtrip_with_frobenius():
    from nilorbit.families import fake_heisenberg

    ring = fake_heisenberg(3, 2)
    ring.parsed_frobenius = ring.fq.frobenius_matrix
    text = ringio.emit_liering(ring)
    back = ringio.parse_liering(text)
    assert (back.parsed_frobenius == ring.fq.frobenius_matrix).all()
    assert ringio.emit_liering(back) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ringio.ParseError):
        ringio.parse_liering("nonsense")
    # non-Jacobi constants are rejected with the failing identity
    bad = """liering p=5 dim=3
bracket 1 2 = 3:1
bracket 1 3 = 1:1
"""
    with pytest.raises(ringio.ParseError) as e:
        ringio.parse_liering(bad)
    assert "jacobi" in str(e.value)
    with pytest.raises(ringio.ParseError):
        ringio.parse_liering("liering p=3 dim=2\nbracket 1 5 = 1:1\n")
    with pytest.raises(ringio.ParseError):
        ringio.parse_liering("liering p=3 dim=2\nbracket 1 2 = x\n")


def test_algebra_roundtrip():
    A = strict_upper_algebra(3, 3)
    text = ringio.emit_algebra(A)
    back = ringio.parse_algebra(text)
    assert (back.constants == A.constants).all()
    assert ringio.emit_algebra(back) == text


def test_algebra_rejects_nonassociative():
    bad = """algebra p=5 dim=2
prod 1 1 = 2:1
prod 2 1 = 1:1
"""
    with pytest.raises(ringio.ParseError):
        ringio.parse_algebra(bad)


def test_matrix_roundtrip():
    M = np.array([[1, 2], [0, 1]], dtype=np.int64)
    assert (ringio.parse_matrix(ringio.emit_matrix(M)) == M).all()


def test_parse_spec_dispatch():
    assert ringio.parse_spec(HEIS_TEXT).dim == 3
    A = strict_upper_algebra(2, 3)
    assert ringio.parse_spec(ringio.emit_algebra(A)).dim == 1
    with pytest.raises(ringio.ParseError):
        ringio.parse_spec("widget p=3\n")


@pytest.mark.parametrize(
    "kind, line", [("liering", "bracket 1 2 = 3:1"), ("algebra", "prod 1 2 = 3:1")]
)
@pytest.mark.parametrize("p", [0, 1, 4])
def test_header_rejects_non_prime_p(kind, line, p):
    with pytest.raises(ringio.ParseError, match="not a prime"):
        ringio.parse_spec("%s p=%d dim=3\n%s\n" % (kind, p, line))


@pytest.mark.parametrize("kind", ["liering", "algebra"])
def test_header_rejects_p_beyond_int64_arithmetic(kind):
    # dim (p-1)^2 must stay below 2^63; 2^61 - 1 is prime and would take
    # minutes of trial division, so the size check comes first
    for p, dim in ((2**31 - 1, 3), (2**61 - 1, 2)):
        with pytest.raises(ringio.ParseError, match="too large"):
            ringio.parse_spec("%s p=%d dim=%d\n" % (kind, p, dim))
    assert ringio._parse_header("%s p=3037000493 dim=1" % kind, 1, kind)["p"] == 3037000493


@pytest.mark.parametrize("kind", ["liering", "algebra"])
def test_header_bounds_dim_before_allocating(kind):
    # dim = 256 is the largest inside the budget: 256^3 = 2^24 entries (the
    # header alone: checking the invariants of a ring that size takes long)
    assert 256**3 == ringio.TENSOR_BUDGET
    assert ringio._parse_header("%s p=2 dim=256" % kind, 1, kind)["dim"] == 256
    for dim in (257, 100000, 0, -3):
        with pytest.raises(ringio.ParseError, match="dim=%d is not in 1 <= dim" % dim):
            ringio.parse_spec("%s p=5 dim=%d\n" % (kind, dim))
