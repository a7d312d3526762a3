import functools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilorbit import ringio
from nilorbit.battery import appendix_h2_ring
from nilorbit.families import strict_upper_algebra, ul_lie_scheme
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


@functools.cache
def _fuzz_seeds():
    """Emitted texts of each format, the starting points of the token edits."""
    ul = ul_lie_scheme(3, 3, 2).at_level(1)
    ul.parsed_frobenius = ul.fq.frobenius_matrix
    return (
        ringio.emit_liering(appendix_h2_ring(5)),
        ringio.emit_liering(heisenberg_ring(3)),
        ringio.emit_liering(ul),
        ringio.emit_algebra(strict_upper_algebra(3, 3)),
        ringio.emit_matrix(np.array([[1, 2, 0], [0, 1, 4], [3, 0, 1]], dtype=np.int64)),
    )


_EDIT_TOKENS = ["-1", "0", "2", "x", "=", ":", "3:1", str(10**23), "frobenius", "bracket",
                "prod", "matrix", "#", "\n"]


_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "delete", "insert"]), st.integers(0, 1 << 16),
              st.sampled_from(_EDIT_TOKENS)),
    max_size=3,
)


@given(st.integers(0, 4), st.integers(0, 1 << 16),
       st.one_of(st.integers(), st.sampled_from(_EDIT_TOKENS)), _EDITS)
@example(4, 0, 10**23, [])
@settings(max_examples=200)
def test_token_edits_parse_or_raise_value_error(seed, entry, value, edits):
    # a token is a run of non-space characters or a line break, so inserting
    # "\n" adds a blank line.  The first edit puts the drawn value in place
    # of a bare integer, most of them matrix entries (frobenius rows, the
    # matrix), so unbounded integers reach the matrix parser.  Every edited
    # text must parse or raise a ValueError (ParseError is one), never
    # anything else
    tokens = re.findall(r"\S+|\n", _fuzz_seeds()[seed])
    ints = [i for i, tok in enumerate(tokens) if tok.isdigit()]
    tokens[ints[entry % len(ints)]] = str(value)
    for op, pos, tok in edits:
        pos %= len(tokens) + (op == "insert")
        if op == "delete":
            del tokens[pos]
        else:
            tokens[pos : pos + (op == "replace")] = [tok]
    text = "".join(t if t == "\n" else t + " " for t in tokens)
    for parse in (ringio.parse_spec, ringio.parse_matrix):
        try:
            parse(text)
        except ValueError:
            pass
