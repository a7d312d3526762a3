"""Text formats for Lie rings, associative algebras, and matrices.

Lie ring format (1-based indices, omitted pairs are zero):

    liering p=<p> dim=<d>
    bracket i j = k1:c1 k2:c2 ...
    frobenius
    <d rows of d integers>

Algebra format:

    algebra p=<p> dim=<d>
    prod i j = k1:c1 k2:c2 ...

Matrix format:

    matrix dim=<d>
    <d rows of d integers>

Emit and parse round-trip bit-exactly; parse errors carry line numbers,
except failures of the whole object (a ring invariant, associativity).
"""

import itertools

import numpy as np

from .families import AssocAlgebra
from .linalg import is_prime
from .liering import TENSOR_BUDGET, LieRing


class ParseError(ValueError):
    """A malformed input; lineno is None when the whole object is at fault."""

    def __init__(self, lineno, message):
        super().__init__(message if lineno is None else "line %d: %s" % (lineno, message))
        self.lineno = lineno


def _int(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, "%r is not an integer" % tok) from None


def _parse_header(line, lineno, kind, keys=("p", "dim")):
    parts = line.split()
    if not parts or parts[0] != kind:
        raise ParseError(lineno, "expected '%s' header" % kind)
    fields = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ParseError(lineno, "bad header token %r" % tok)
        k, v = tok.split("=", 1)
        if k not in keys or k in fields:
            raise ParseError(lineno, "unexpected header field %r" % tok)
        fields[k] = _int(v, lineno)
    if any(k not in fields for k in keys):
        raise ParseError(lineno, "header needs %s" % " and ".join(k + "=" for k in keys))
    dim = fields["dim"]
    if dim < 1 or dim**3 > TENSOR_BUDGET:
        raise ParseError(lineno, "dim=%d is not in 1 <= dim^3 <= %d" % (dim, TENSOR_BUDGET))
    if "p" not in keys:
        return fields
    p = fields["p"]
    # linalg.bilinear is exact while dim * (p-1)^2 < 2^63; checked first, it
    # also bounds the trial division in is_prime
    if dim * (p - 1) ** 2 >= 2**63:
        raise ParseError(lineno, "p=%d is too large for int64 arithmetic at dim=%d" % (p, dim))
    if not is_prime(p):
        raise ParseError(lineno, "p=%d is not a prime" % p)
    return fields


def _matrix_rows(lines, start, dim):
    """The dim x dim integer matrix on lines[start:start + dim]."""
    if len(lines) < start + dim:
        got = len(lines) - start
        raise ParseError(len(lines) + 1, "matrix truncated: %d of %d rows" % (got, dim))
    rows = []
    for i, line in enumerate(lines[start : start + dim], start=start + 1):
        rows.append([_int(t, i) for t in line.split()])
        if len(rows[-1]) != dim:
            raise ParseError(i, "matrix row needs %d entries" % dim)
        big = next((v for v in rows[-1] if not -(2**63) <= v < 2**63), None)
        if big is not None:
            raise ParseError(i, "matrix entry %d does not fit int64" % big)
    return np.array(rows, dtype=np.int64)


def _parse_constants(line, word, dim, lineno):
    """(a, b, {k: c}), 0-based, from the line 'word a b = k:c ...'."""
    head, _, rhs = line.partition("=")
    parts = head.split()
    if len(parts) != 3:
        raise ParseError(lineno, "%s needs two indices" % word)
    a, b = _int(parts[1], lineno), _int(parts[2], lineno)
    if not (1 <= a <= dim and 1 <= b <= dim):
        raise ParseError(lineno, "%s indices out of range" % word)
    out = {}
    for tok in rhs.split():
        if ":" not in tok:
            raise ParseError(lineno, "bad term %r (want k:c)" % tok)
        k, c = tok.split(":", 1)
        k = _int(k, lineno)
        if not (1 <= k <= dim):
            raise ParseError(lineno, "index %d out of range" % k)
        out[k - 1] = _int(c, lineno)
    return a - 1, b - 1, out


def parse_liering(text):
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    fields = _parse_header(lines[0], 1, "liering")
    p, dim = fields["p"], fields["dim"]
    C = np.zeros((dim, dim, dim), dtype=np.int64)
    frob = None
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        if not line or line.startswith("#"):
            i += 1
            continue
        if line == "frobenius":
            frob = _matrix_rows(lines, i + 1, dim) % p
            i += dim + 1
            continue
        if not line.startswith("bracket"):
            raise ParseError(i + 1, "unexpected line %r" % line)
        a, b, terms = _parse_constants(line, "bracket", dim, i + 1)
        for k, c in terms.items():
            C[a, b, k] = c % p
            C[b, a, k] = (-c) % p
        i += 1
    ring = LieRing(p, C)
    if frob is not None:
        ring.parsed_frobenius = frob
    report = ring.validate(for_lazard=False)
    if not report.ok:
        raise ParseError(None, "ring invariants fail: %s" % (report.failures[:1],))
    return ring


def _emit_constants(word, C, pairs):
    """The lines 'word i j = k:c ...' of the pairs (i, j) with nonzero constants."""
    lines = []
    for i, j in pairs:
        ks = np.flatnonzero(C[i, j])
        if len(ks):
            terms = " ".join("%d:%d" % (k + 1, C[i, j, k]) for k in ks)
            lines.append("%s %d %d = %s" % (word, i + 1, j + 1, terms))
    return lines


def emit_liering(ring):
    lines = ["liering p=%d dim=%d" % (ring.p, ring.dim)]
    lines += _emit_constants("bracket", ring.constants, itertools.combinations(range(ring.dim), 2))
    if getattr(ring, "parsed_frobenius", None) is not None:
        lines.append("frobenius")
        for r in ring.parsed_frobenius:
            lines.append(" ".join(str(int(v)) for v in r))
    return "\n".join(lines) + "\n"


def parse_algebra(text):
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    fields = _parse_header(lines[0], 1, "algebra")
    p, dim = fields["p"], fields["dim"]
    C = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("prod"):
            raise ParseError(i, "unexpected line %r" % line)
        a, b, terms = _parse_constants(line, "prod", dim, i)
        for k, c in terms.items():
            C[a, b, k] = c % p
    try:
        return AssocAlgebra(p, C)
    except ValueError as e:
        raise ParseError(None, str(e))


def emit_algebra(alg):
    lines = ["algebra p=%d dim=%d" % (alg.p, alg.dim)]
    lines += _emit_constants("prod", alg.constants, itertools.product(range(alg.dim), repeat=2))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    dim = _parse_header(lines[0], 1, "matrix", keys=("dim",))["dim"]
    M = _matrix_rows(lines, 1, dim)
    for i, line in enumerate(lines[dim + 1 :], start=dim + 2):
        if line.strip():
            raise ParseError(i, "unexpected line %r after the matrix" % line)
    return M


def emit_matrix(M):
    lines = ["matrix dim=%d" % M.shape[0]]
    for r in M:
        lines.append(" ".join(str(int(v)) for v in r))
    return "\n".join(lines) + "\n"


def parse_spec(text):
    """Dispatch on the header keyword: LieRing or AssocAlgebra."""
    stripped = text.lstrip()
    if stripped.startswith("liering"):
        return parse_liering(text)
    if stripped.startswith("algebra"):
        return parse_algebra(text)
    raise ParseError(1, "unknown header (want 'liering' or 'algebra')")
