"""The dense orbit kernel: partition of F_p^d under invertible matrices.

The dense orbit enumeration over p^d indices dominates orbit censuses,
conjugacy classes of Lazard groups and base-change towers.  Points are
numbered by linalg's codec, little-endian base-p indices; generators act
as d x d matrices mod p on coordinate columns.  The kernel covers the
whole index space, BLOCK points at a time: every gather of table building
and propagation is an `np.take` into a cache-sized buffer, and neither
allocates a full-size temporary.

* each generator's action is materialized as one int32 image table in
  O(p^d), meet-in-the-middle: the input digits split into a low and a high
  half, so M x = M x_lo + M x_hi, and each chunk of output digits of the
  image is read from one shared F_p-addition table indexed by the two
  half-images' chunk indices (the codec's indices of F_p^h), one block of
  high halves at a time;
* orbits are the connected components of the image graph, found by
  min-label propagation (lab = min(lab, lab[img]) over the generators)
  with pointer jumping (lab = lab[lab]), in place.  Labels never rise and
  lab[j] <= j, so propagation stops at the first pass that leaves the
  label sum unchanged.  Each label then points at its orbit's minimal
  index, so renumbering the roots in index order numbers the orbits by
  increasing seed, and `first_indices` finds every seed in one O(n) pass.

Propagation along images alone reaches the whole orbit only when the
generators generate a group, so singular generators are rejected.  The
propagation, `orbit_labels`, takes any permutation tables: black-box
groups partition themselves into conjugacy classes with it.  It checks
once that every table maps [0, n) into itself, so the gathers need no
bounds check.  Memory is one int32 table per generator and one int32
label array, 4k + 4 bytes a point for k generators, plus the block
buffers.  The tables are freed before the ids are built: the roots are
renumbered in int32 and gathered into the int64 ids a block at a time.

The orbits of a group are the components under any generating set, so the
cost is per generator, not per group element.  Exp(g) needs only the
exponentials of a basis of a complement of [g,g]: under the Lazard
correspondence [G,G] = exp([g,g]), which lies in the Frattini subgroup of
the p-group G, and elements that generate G/[G,G] generate G (Burnside's
basis theorem).  `LieRing.adjoint_generators` and `coadjoint_generators`
therefore pass d - dim [g,g] matrices, not d.
"""

import numpy as np

from . import linalg

BACKEND = "numpy"  # the kernel implementation, reported with benchmark results

DENSE_BUDGET = 1 << 24  # points of one dense index space F_p^d
HASHSET_BUDGET = 1 << 22  # points of one orbit found by hash-set BFS
BLOCK = 1 << 16  # points per gather: each step's buffers stay cache-sized


def orbit_partition(mats, p):
    """labels[i] = orbit id of point i; ids numbered by increasing seed.

    Refuses an index space beyond DENSE_BUDGET points.
    """
    d = mats.shape[1] if hasattr(mats, "shape") else len(mats[0])
    if p**d > DENSE_BUDGET:
        raise ValueError("orbit enumeration over %d^%d points exceeds the dense budget" % (p, d))
    mats = np.asarray(mats, dtype=np.int64) % p
    if mats.ndim != 3 or mats.shape[2] != d:
        raise ValueError("generator matrices must be square")
    for M in mats:
        if linalg.rank(M, p) < d:
            raise ValueError("orbit generators must be invertible mod %d" % p)
    return orbit_labels(_image_tables(mats, p), p**d)


def orbit_labels(images, n):
    """labels[i] = orbit id of i under the permutations images[a] of
    [0, n) (int arrays, i -> images[a][i]); ids numbered by increasing seed.

    Min-label propagation with pointer jumping: every label ends at its
    orbit's minimal index, and the roots renumbered in index order give
    the ids.  Propagation along images covers a whole orbit only because
    each image table is a permutation (a group action).  A table that is
    not a 1-D integer array of n entries in [0, n) raises ValueError.
    The tables are dropped once propagation ends, so a caller that passes
    them in the call, holding no other reference, frees them before the
    int64 ids are built.
    """
    # by index: a loop variable would keep the last table alive below
    for a in range(len(images)):
        if not _is_table(images[a], n):
            raise ValueError("image table %d does not map [0, %d) into itself" % (a, n))
    lab = np.arange(n, dtype=np.int32)
    buf = np.empty(min(n, BLOCK), dtype=np.int32)
    # lab[j] <= j and labels never rise, so an unchanged sum means a pass
    # changed nothing: the fixpoint
    total = n * (n - 1) // 2
    while True:
        for a in range(len(images)):
            _gather_min(lab, images[a], buf)
        _gather_min(lab, lab, buf)  # pointer jumping: lab[lab[j]] <= lab[j]
        total, last = int(lab.sum(dtype=np.int64)), total
        if total == last:
            break
    del images
    # the roots renumbered in int32, gathered into the int64 ids a block at a time
    roots = np.cumsum(lab == np.arange(n, dtype=np.int32), dtype=np.int32)
    roots -= 1
    ids = np.empty(n, dtype=np.int64)
    for r0 in range(0, n, BLOCK):
        ids[r0 : r0 + BLOCK] = roots[lab[r0 : r0 + BLOCK]]
    return ids


def first_indices(labels):
    """The first (= minimal) index of each id of a partition whose ids are
    numbered by increasing seed, as orbit_labels numbers them: the running
    maximum of the labels steps up by one exactly at each id's first
    index, so one O(n) pass finds them all, in id order."""
    run = np.maximum.accumulate(labels)
    first = np.ones(len(run), dtype=bool)
    np.not_equal(run[1:], run[:-1], out=first[1:])
    return np.flatnonzero(first)


def _is_table(t, n):
    """Whether t is a 1-D integer array of n entries in [0, n)."""
    if t.ndim != 1 or len(t) != n or t.dtype.kind not in "iu":
        return False
    return t.min() >= 0 and t.max() < n


def _gather_min(lab, table, buf):
    """lab[j] = min(lab[j], lab[table[j]]) in place, BLOCK points at a time.

    Blocks read labels that earlier blocks already lowered; that only
    speeds propagation, and the fixpoint is the same.
    """
    for r0 in range(0, len(lab), BLOCK):
        out = lab[r0 : r0 + BLOCK]
        got = buf[: len(out)]
        lab.take(table[r0 : r0 + BLOCK], out=got, mode="clip")
        np.minimum(out, got, out=out)


def _image_tables(mats, p):
    """images[a][i] = index of mats[a] @ point(i), as int32 arrays."""
    d = mats.shape[1]
    if d == 1:  # a single digit needs no table, and p^2 may exceed the budget
        return [(M[0, 0] * np.arange(p) % p).astype(np.int32) for M in mats]
    # h digits per input half and per output chunk, so the addition table
    # has p^2h <= p^d entries
    h = d // 2
    P = p**h
    add = _addition_table(p, h).ravel()
    lo_pts = linalg.all_vectors(h, p)  # p^h x h
    hi_pts = linalg.all_vectors(d - h, p)
    rows = min(len(hi_pts), max(1, BLOCK // P))  # high halves per block
    idx = np.empty((rows, P), dtype=np.intp)
    part = np.empty((rows, P), dtype=np.int32)
    images = []
    for M in mats:
        lo = (lo_pts @ M[:, :h].T) % p  # M x_lo, one row per low half
        hi = (hi_pts @ M[:, h:].T) % p
        chunks = []  # (low, high indices into add, scale) per output chunk
        for a in range(0, d, h):
            lo_idx = linalg.encode_vectors(lo[:, a : a + h], p)
            chunks.append((lo_idx, linalg.encode_vectors(hi[:, a : a + h], p) * P, p**a))
        img = np.empty((len(hi), P), dtype=np.int32)  # [x_hi, x_lo]
        for r0 in range(0, len(hi), rows):
            out = img[r0 : r0 + rows]
            m = len(out)
            for A, B, scale in chunks:
                np.add.outer(B[r0 : r0 + m], A, out=idx[:m])
                if scale == 1:  # the first chunk
                    add.take(idx[:m], out=out, mode="clip")
                else:
                    add.take(idx[:m], out=part[:m], mode="clip")
                    part[:m] *= scale
                    out += part[:m]
        images.append(img.ravel())
    return images


def _addition_table(p, c):
    """add[a, b] = index of point(a) + point(b) mod p, over F_p^c."""
    add = np.zeros((1, 1), dtype=np.int32)
    digit = np.add.outer(np.arange(p), np.arange(p)).astype(np.int32) % p
    for k in range(c):
        # prepend the new most significant digit to both operands
        add = add[None, :, None, :] + (digit * np.int32(p**k))[:, None, :, None]
        add = add.reshape(p ** (k + 1), p ** (k + 1))
    return add


def single_orbit(mats, p, seed_vec):
    """One orbit by hash-set BFS: for index spaces beyond the dense budget,
    where only the orbit of a given point is needed.  Refuses an orbit of
    more than HASHSET_BUDGET points.

    Returns the orbit as a sorted (size, d) array of points.  Frontier
    steps are vectorized; visited points are tracked by byte keys, so the
    cost scales with the orbit, not with p^d.
    """
    mats = np.asarray(mats, dtype=np.int64) % p
    d = mats.shape[1]
    seed = np.asarray(seed_vec, dtype=np.int64).reshape(1, d) % p
    seen = {seed.tobytes()}
    points = [seed[0].copy()]
    frontier = seed
    while len(frontier):
        images = np.concatenate([(frontier @ M.T) % p for M in mats], axis=0)
        fresh = []
        for row in images:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(row)
                if len(seen) > HASHSET_BUDGET:
                    raise ValueError("orbit exceeds the hash-set budget %d" % HASHSET_BUDGET)
        if not fresh:
            break
        frontier = np.array(fresh, dtype=np.int64)
        points.extend(frontier)
    out = np.array(points, dtype=np.int64)
    # index order: the last coordinate is the most significant digit
    return out[np.lexsort(out.T)]
