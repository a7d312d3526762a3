"""Text formats for Lie rings, associative algebras, and matrices.

Lie ring format (1-based indices, omitted pairs are zero):

    liering p=<p> dim=<d> [q=<p^s>]
    bracket i j = k1:c1 k2:c2 ...
    frobenius
    <d rows of d integers>

Algebra format:

    algebra p=<p> dim=<d>
    prod i j = k1:c1 k2:c2 ...

Matrix format:

    matrix dim=<d>
    <d rows of d integers>

Emit and parse round-trip bit-exactly; parse errors carry line numbers.
"""

import numpy as np

from .families import AssocAlgebra
from .linalg import is_prime
from .liering import LieRing

# Entries of the dense dim^3 int64 structure-constant tensor a header may
# ask for: 2^24 (dim <= 256, 128 MiB), checked before it is allocated.
TENSOR_BUDGET = 1 << 24


class ParseError(ValueError):
    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _parse_header(line, lineno, kind):
    parts = line.split()
    if not parts or parts[0] != kind:
        raise ParseError(lineno, "expected '%s' header" % kind)
    fields = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ParseError(lineno, "bad header token %r" % tok)
        k, v = tok.split("=", 1)
        fields[k] = int(v)
    if "p" not in fields or "dim" not in fields:
        raise ParseError(lineno, "header needs p= and dim=")
    p, dim = fields["p"], fields["dim"]
    if dim < 1 or dim**3 > TENSOR_BUDGET:
        raise ParseError(lineno, "dim=%d is not in 1 <= dim^3 <= %d" % (dim, TENSOR_BUDGET))
    # linalg.bilinear is exact while dim * (p-1)^2 < 2^63; checked first, it
    # also bounds the trial division in is_prime
    if dim * (p - 1) ** 2 >= 2**63:
        raise ParseError(lineno, "p=%d is too large for int64 arithmetic at dim=%d" % (p, dim))
    if not is_prime(p):
        raise ParseError(lineno, "p=%d is not a prime" % p)
    return fields


def _parse_terms(rhs, dim, lineno):
    out = {}
    for tok in rhs.split():
        if ":" not in tok:
            raise ParseError(lineno, "bad term %r (want k:c)" % tok)
        k, c = tok.split(":", 1)
        k = int(k)
        if not (1 <= k <= dim):
            raise ParseError(lineno, "index %d out of range" % k)
        out[k - 1] = int(c)
    return out


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
            rows = []
            for r in range(dim):
                i += 1
                if i >= len(lines):
                    raise ParseError(i + 1, "frobenius matrix truncated")
                row = [int(t) for t in lines[i].split()]
                if len(row) != dim:
                    raise ParseError(i + 1, "frobenius row needs %d entries" % dim)
                rows.append(row)
            frob = np.array(rows, dtype=np.int64) % p
            i += 1
            continue
        if not line.startswith("bracket"):
            raise ParseError(i + 1, "unexpected line %r" % line)
        head, _, rhs = line.partition("=")
        parts = head.split()
        if len(parts) != 3:
            raise ParseError(i + 1, "bracket needs two indices")
        a, b = int(parts[1]), int(parts[2])
        if not (1 <= a <= dim and 1 <= b <= dim):
            raise ParseError(i + 1, "bracket indices out of range")
        for k, c in _parse_terms(rhs, dim, i + 1).items():
            C[a - 1, b - 1, k] = c % p
            C[b - 1, a - 1, k] = (-c) % p
        i += 1
    ring = LieRing(p, C)
    if frob is not None:
        ring.parsed_frobenius = frob
    report = ring.validate(for_lazard=False)
    if not report.ok:
        raise ParseError(0, "ring invariants fail: %s" % (report.failures[:1],))
    return ring


def emit_liering(ring):
    lines = ["liering p=%d dim=%d" % (ring.p, ring.dim)]
    for i in range(ring.dim):
        for j in range(i + 1, ring.dim):
            row = ring.constants[i, j]
            if not row.any():
                continue
            terms = " ".join(
                "%d:%d" % (k + 1, int(row[k])) for k in np.nonzero(row)[0]
            )
            lines.append("bracket %d %d = %s" % (i + 1, j + 1, terms))
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
        head, _, rhs = line.partition("=")
        parts = head.split()
        if len(parts) != 3:
            raise ParseError(i, "prod needs two indices")
        a, b = int(parts[1]), int(parts[2])
        if not (1 <= a <= dim and 1 <= b <= dim):
            raise ParseError(i, "prod indices out of range")
        for k, c in _parse_terms(rhs, dim, i).items():
            C[a - 1, b - 1, k] = c % p
    try:
        return AssocAlgebra(p, C)
    except ValueError as e:
        raise ParseError(0, str(e))


def emit_algebra(alg):
    lines = ["algebra p=%d dim=%d" % (alg.p, alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            row = alg.constants[i, j]
            if not row.any():
                continue
            terms = " ".join(
                "%d:%d" % (k + 1, int(row[k])) for k in np.nonzero(row)[0]
            )
            lines.append("prod %d %d = %s" % (i + 1, j + 1, terms))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "matrix":
        raise ParseError(1, "expected 'matrix' header")
    dim = int(head[1].split("=")[1])
    rows = []
    for i, ln in enumerate(lines[1 : dim + 1], start=2):
        row = [int(t) for t in ln.split()]
        if len(row) != dim:
            raise ParseError(i, "matrix row needs %d entries" % dim)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


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
