"""Word balls in finitely generated discrete subgroups, coset reduction
relative to the cycle subgroup, delta spectra, and the counting function.

A word ball is one ``Ball`` record of arrays: the shortest words (the
identity "e" first), the (N, d+1, d+1) stack of their matrices, their word
lengths and a class id per element, numbered by first appearance.  A fresh
ball has one class per element; coset reduction returns the same ball
with left (or double) class ids, so the trivial class is always class 0 and
each class is represented by its first member.

Elements are deduplicated by quantized matrix entries, with an audit on two
offset grids that catches rounding-boundary splits; each level of the word
ball is one stacked product.  Cosets of the cycle subgroup are grouped on
the same grids by class keys, projectors of normal rows (left) or columns
(double), and the key hits are confirmed in stacked block tests.  Classes
are labelled by their smallest member through min-label propagation.

Every key is a row of int64 cells, hashed to one uint64 (a wrapping sum of
the cells times fixed odd multipliers); rows sort by the hash and compare
whole, so a hash collision never merges two rows.  The audit and the class
keys group rows this way, and the word ball's elements seen so far and the
double pass's join of rep gamma0 on the ball are hash-sorted indexes.  The
left labels are cached on the ball, so a double reduction after a left one
on the same ball pays for one left pass.

Stacks are formed CHUNK matrices at a time.  Double cosets take the cycle
subgroup from a bounded ball, so double-coset reduction is approximate by
construction and reports the ball radius used.  Only the delta spectrum
builds one ``OrbitEntry`` row per class representative, from one stacked
factorization of all representatives.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .cycles import invariants_stack
from .lorentz import (TOL_G0, _block_offdiag_max, group_residual, is_lorentz, lorentz_inverse,
                      make_boost, spin_cover_so13)

LENGTH_CAP = 12
# cell size of the word ball's dedup keys
QUANT = 1e-9
# cell size of the dedup audit grids and of the coset class keys
KEY_RES = 1e-6
# largest entry gap at which two matrices are one element
SAME_GAP = 1e-12
# matrices per stacked product of the batched loops, bounding their temporaries
CHUNK = 1024


@dataclass(frozen=True)
class GeneratorSet:
    labels: tuple
    matrices: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.matrices):
            raise ValueError("labels and matrices must pair up")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be unique")
        for lab, g in zip(self.labels, self.matrices):
            if not is_lorentz(np.asarray(g)):
                raise ValueError(
                    f"generator {lab!r} fails the group invariant "
                    f"g^T J g = J (residual {group_residual(np.asarray(g)):.3e})"
                )

    @property
    def d(self):
        return np.asarray(self.matrices[0]).shape[0] - 1

    def moves(self):
        """(label, matrix) pairs including inverses; an inverse equal to an
        existing move (an involution, or an inverse the set lists) is
        dropped, labels invert by swapcase."""
        out = [(lab, np.asarray(g, dtype=float)) for lab, g in zip(self.labels, self.matrices)]
        for lab, g in zip(self.labels, self.matrices):
            gi = lorentz_inverse(np.asarray(g, dtype=float))
            if any(np.max(np.abs(gi - h)) < SAME_GAP for _, h in out):
                continue
            inv_lab = lab.swapcase() if lab.swapcase() != lab else lab + "~"
            out.append((inv_lab, gi))
        return sorted(out, key=lambda kv: kv[0])

    @classmethod
    def from_json(cls, path):
        """Load {"d": ..., "generators": [{"label": ..., "matrix": [[...]]}]}
        from a JSON file; other keys, such as the "includes_inverses" of
        older files, are ignored."""
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"a generator set is a JSON object, got {type(obj).__name__}")
        d = int(obj["d"])
        labels, mats = [], []
        for item in obj["generators"]:
            labels.append(str(item["label"]))
            g = np.asarray(item["matrix"], dtype=float).reshape(d + 1, d + 1)
            mats.append(g)
        return cls(labels=tuple(labels), matrices=tuple(mats))

    def to_json(self):
        return {
            "d": self.d,
            "generators": [
                {"label": lab, "matrix": [[float(x) for x in row] for row in np.asarray(g)]}
                for lab, g in zip(self.labels, self.matrices)
            ],
        }


@dataclass(frozen=True, eq=False)
class Ball:
    """A word ball: ``words`` (a tuple, the identity "e" first), ``mats``
    (their (N, d+1, d+1) stack), ``lengths`` (word lengths) and ``ids``
    (class ids numbered by first appearance; ``np.arange(N)`` when fresh),
    with the cycle-subgroup radius of a double reduction and the dedup cell
    size ``quant`` the ball was built with, which coset reduction reuses."""
    words: tuple
    mats: np.ndarray
    lengths: np.ndarray
    ids: np.ndarray
    gamma0_max_len: int = 0
    quant: float = QUANT
    # left labels by (block split, tolerance), filled by coset_reduce; a
    # replaced ball starts empty
    _left_labels: dict = field(init=False, repr=False, default_factory=dict)

    def __len__(self):
        return len(self.words)

    def class_ids(self):
        return sorted(set(self.ids.tolist()))


@dataclass(frozen=True, eq=False, slots=True)
class OrbitEntry:
    word: str
    matrix: np.ndarray
    word_length: int
    coset_id: int = -1
    delta: float = None
    M: float = None
    N_u: float = None
    Q_u: float = None


@dataclass(frozen=True, eq=False)
class OrbitTable:
    """A delta spectrum: one OrbitEntry per nontrivial class representative."""
    entries: tuple


def _cells(stack, quant):
    """The dedup cells of each matrix of a stack: its entries rounded to
    cells of size ``quant``, one int64 row per matrix."""
    c = stack / quant
    return np.round(c, out=c).astype(np.int64).reshape(len(stack), -1)


@functools.cache
def _multipliers(width):
    """The odd uint64 multipliers of the cell hash, read-only: splitmix64
    outputs of the column numbers 1..width, their low bit set."""
    z = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31)) | np.uint64(1)
    z.flags.writeable = False
    return z


def _hash(cells):
    """One uint64 per int64 cell row: the wrapping sum of its cells times
    the multipliers.  Equal rows hash equal; rows compare whole wherever
    their hashes do, so a hash shared by unequal rows never merges them."""
    return cells.view(np.uint64) @ _multipliers(cells.shape[1])


def _runs(cells, hashes):
    """An order of the cell rows in which equal rows are adjacent, and the
    start of each run of equal rows in it; the members of a run come in no
    particular order.  Rows sort by their hashes; should unequal rows share
    one, they sort by their cells."""
    def starts(order):
        ordered = cells[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        return new

    order = np.argsort(hashes)
    new = starts(order)
    if (new[1:] & (hashes[order[1:]] == hashes[order[:-1]])).any():
        order = np.lexsort(cells.T)
        new = starts(order)
    return order, np.flatnonzero(new)


def _lookup(index, cells, hashes):
    """Position in ``index`` = (hashes, cells) sorted by hash of each query
    row (``cells``, ``hashes``), or -1 where it is absent; a hash run of
    several rows is walked to the row equal to the query."""
    index_hashes, index_cells = index
    pos = np.empty(len(cells), dtype=np.intp)
    by_hash = np.argsort(hashes)    # sorted queries search faster
    pos[by_hash] = np.searchsorted(index_hashes, hashes[by_hash])
    found = np.full(len(cells), -1, dtype=np.intp)
    live = np.arange(len(cells))
    while live.size:
        p = pos[live]
        hit = p < len(index_hashes)
        live, p = live[hit], p[hit]
        hit = index_hashes[p] == hashes[live]
        live, p = live[hit], p[hit]
        equal = (index_cells[p] == cells[live]).all(axis=1)
        found[live[equal]] = p[equal]
        live = live[~equal]
        pos[live] += 1
    return found


def ball_enumerate(gens, max_word_length, quant=QUANT):
    """Breadth-first word ball: all distinct elements of word length up to
    ``max_word_length`` (at most LENGTH_CAP), each with a shortest
    representing word (ties broken lexicographically by construction
    order).  Each level's products base @ move are formed as stacked
    products, base-major like the words, and looked up by their cells in
    the hash-sorted index of the earlier levels, which takes in each level
    once; the first of a level's equal products is kept.
    """
    if not 1 <= max_word_length <= LENGTH_CAP:
        raise ValueError(f"max_word_length must be in [1, {LENGTH_CAP}], got {max_word_length!r}")
    letters, steps = zip(*gens.moves())
    steps = np.asarray(steps)
    eye = np.eye(gens.d + 1)
    cells = _cells(eye[None], quant)
    index = (_hash(cells), cells)
    frontier, words = eye[None], [""]
    levels, all_words = [frontier], ["e"]
    bases = max(1, CHUNK // len(steps))
    for length in range(1, max_word_length + 1):
        if not len(frontier):
            break
        fresh = []      # (products, cells, hashes, positions in the level) not seen before
        for c in range(0, len(frontier), bases):
            prods = (frontier[c:c + bases, None] @ steps[None]).reshape(-1, *eye.shape)
            cells = _cells(prods, quant)
            hashes = _hash(cells)
            new = np.flatnonzero(_lookup(index, cells, hashes) < 0)
            fresh.append((prods[new], cells[new], hashes[new], c * len(steps) + new))
        prods, cells, hashes, pos = (np.concatenate(part) for part in zip(*fresh))
        del fresh
        order, starts = _runs(cells, hashes)
        keep = np.sort(np.minimum.reduceat(order, starts))  # the first of each run
        frontier = prods[keep]
        base, move = np.divmod(pos[keep], len(steps))
        words = [words[i] + letters[j] for i, j in zip(base.tolist(), move.tolist())]
        levels.append(frontier)
        all_words += words
        if length < max_word_length:
            hashes = np.concatenate([index[0], hashes[keep]])
            by_hash = np.argsort(hashes)
            index = (hashes[by_hash], np.concatenate([index[1], cells[keep]])[by_hash])
    index = prods = cells = None    # freed before the audit

    mats = np.concatenate(levels)
    lengths = np.repeat(np.arange(len(levels)), [len(m) for m in levels])
    del levels, frontier
    keep = _audit_dedup(all_words, mats)
    return Ball(words=tuple(all_words[i] for i in keep.tolist()), mats=mats[keep],
                lengths=lengths[keep], ids=np.arange(len(keep)), quant=quant)


def _audit_dedup(words, mats):
    """Catch rounding-boundary splits: group coarsely (two offset grids),
    drop the later member of pairs closer than SAME_GAP, reject ambiguous
    ones.  Returns the indices kept, ascending."""
    keep = np.ones(len(mats), dtype=bool)
    members, bounds = _grid_buckets(mats.reshape(len(mats), -1))
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for i, j in combinations(members[a:b].tolist(), 2):
            gap = np.max(np.abs(mats[i] - mats[j]))
            if gap < SAME_GAP:
                keep[j] = False
            elif gap < 1e-8:
                raise RuntimeError(
                    f"dedup ambiguity between words {words[i]!r} and {words[j]!r} "
                    f"(entry gap {gap:.3e}); a larger quant (CLI --tol quant=) may merge them"
                )
    return np.flatnonzero(keep)


def _grid_buckets(rows):
    """The rows sharing a cell of one of two grids of spacing KEY_RES,
    offset by half a cell, so that values one grid splits at a boundary
    meet on the other: (members, bounds), bucket k being the ascending
    members[bounds[k]:bounds[k + 1]], buckets in order of first member
    (the unshifted grid's first)."""
    n = len(rows)
    keys = []   # per bucket member: (first member, grid, member) as one int
    for grid, off in enumerate((0.0, 0.5)):
        cells = rows / KEY_RES
        cells += off
        cells = np.round(cells, out=cells).astype(np.int64)
        order, starts = _runs(cells, _hash(cells))
        size = np.diff(np.r_[starts, n])
        multi = np.repeat(size > 1, size)
        first = np.repeat(np.minimum.reduceat(order, starts), size)
        keys.append(((2 * first + grid) * n + order)[multi])
    bucket, members = np.divmod(np.sort(np.concatenate(keys)), max(n, 1))
    edges = np.ones(len(bucket) + 1, dtype=bool)
    edges[1:-1] = bucket[1:] != bucket[:-1]
    return members, np.flatnonzero(edges)


def _key_buckets(cols):
    """_grid_buckets of the class keys C C^T / tr(C C^T) of the stacked
    column blocks C (upper triangles): an orthogonal factor acting on the
    columns cancels, and the scaling frees the key from the entries' size."""
    i, j = np.triu_indices(cols.shape[1])
    proj = np.einsum("nik,nik->ni", cols[:, i], cols[:, j])
    proj /= proj[:, i == j].sum(axis=1, keepdims=True)
    return _grid_buckets(proj)


def _pairs(members, bounds):
    """(bucket, first, other) index arrays pairing the first member of each
    bucket with each of its other members, in bucket order; a pair that
    both grids bucket is kept at its first occurrence only."""
    sizes = np.diff(bounds) - 1
    first = np.repeat(members[bounds[:-1]], sizes)
    other = np.delete(members, bounds[:-1])
    keep = np.sort(np.unique(first * (other.max(initial=0) + 1) + other, return_index=True)[1])
    return np.repeat(np.arange(len(sizes)), sizes)[keep], first[keep], other[keep]


def _confirm(words, bucket, a, b, quotient, split, tol, what):
    """Block-test the quotients of the key hits (a[i], b[i]), CHUNK at a
    time; ``quotient`` maps a slice of the hits to their stacked quotients.
    A hit failing at ``tol`` is a key collision: raise RuntimeError naming
    both words of the worst hit in the first bucket holding one."""
    off = np.zeros(len(a))
    for c in range(0, len(a), CHUNK):
        off[c:c + CHUNK] = _block_offdiag_max(quotient(slice(c, c + CHUNK)), split)
    bad = np.flatnonzero(off > tol)
    if bad.size:
        hits = np.flatnonzero(bucket == bucket[bad[0]])
        k = hits[off[hits].argmax()]
        raise RuntimeError(f"{what} key collision between words {words[a[k]]!r} and "
                           f"{words[b[k]]!r} (block test {off[k]:.3e} > tol {tol:g})")


def _components(labels, a, b):
    """Class labels after merging the classes of a[i] and b[i], from labels
    whose roots label themselves: min-label propagation with pointer
    jumping, so that each element ends labelled by its class's smallest
    member."""
    while True:
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        la, lb = labels[a], labels[b]
        if np.array_equal(la, lb):
            return labels
        low = np.minimum(la, lb)
        labels = labels.copy()
        np.minimum.at(labels, la, low)
        np.minimum.at(labels, lb, low)


def coset_reduce(ball, cfg, mode="left", gamma0_max_len=4, tol=TOL_G0):
    """Partition a deduplicated ball into left (or double) classes mod the
    cycle subgroup: returns the ball with class ids numbered by first
    appearance, so that each class's first (minimal, lexicographic) word
    represents it.

    A left class G0 gamma is keyed by N^T N, N = gamma[n+1:, :]; a key hit
    that the block test of gamma' gamma^{-1} rejects at ``tol`` raises.  The
    left labels are kept on the ball, so a double reduction after a left one
    starts from them.
    """
    if mode not in ("left", "double"):
        raise ValueError("mode must be 'left' or 'double'")
    split = cfg.n + 1
    labels = ball._left_labels.get((split, tol))
    if labels is None:
        words, mats = ball.words, ball.mats
        bucket, a, b = _pairs(*_key_buckets(np.swapaxes(mats[:, split:, :], 1, 2)))
        _confirm(words, bucket, a, b, lambda s: mats[b[s]] @ lorentz_inverse(mats[a[s]]),
                 split, tol, "left-class")
        labels = _components(np.arange(len(ball)), a, b)
        labels.flags.writeable = False
        ball._left_labels[split, tol] = labels
    if mode == "double":
        labels = _merge_double(labels, ball, split, gamma0_max_len, tol)

    # roots are first members: counting them numbers classes by first appearance
    ids = (np.cumsum(labels == np.arange(len(ball))) - 1)[labels]
    return replace(ball, ids=ids, gamma0_max_len=gamma0_max_len if mode == "double" else 0)


def _merge_double(labels, ball, split, gamma0_max_len, tol):
    """Merge left classes lying in one double coset, gamma0 ranging over the
    bounded cycle-subgroup ball: a join on the ball's hash-sorted cells (of
    its own quant) links rep and rep gamma0 when the latter is in the ball,
    and a key hit of C(gamma0 B) = gamma0 C(B) gamma0^T on C(A), A and B live
    representatives and C = gamma[:, n+1:] gamma[:, n+1:]^T, puts
    A^{-1} gamma0 B in the cycle subgroup.  Returns the merged labels."""
    words, mats, quant = ball.words, ball.mats, ball.quant
    in_g0 = _block_offdiag_max(mats, split) <= tol
    g0_stack = mats[(ball.lengths <= gamma0_max_len) & in_g0]
    reps = np.flatnonzero(labels == np.arange(len(mats)))
    cells = _cells(mats, quant)
    hashes = _hash(cells)
    by_hash = np.argsort(hashes)
    index = (hashes[by_hash], cells[by_hash])
    # ball index of rep @ gamma0, rep-major, -1 where it is not in the ball
    found = []
    step = max(1, CHUNK // max(1, len(g0_stack)))
    for c in range(0, len(reps), step):
        cells = _cells((mats[reps[c:c + step], None] @ g0_stack[None]).reshape(-1, *mats.shape[1:]),
                       quant)
        at = _lookup(index, cells, _hash(cells))
        found.append(np.where(at < 0, -1, by_hash[at]))
    del index, cells  # the key pass below is the memory peak
    found = np.concatenate(found or [np.zeros(0, dtype=np.intp)])
    hit = np.flatnonzero(found >= 0)
    labels = _components(labels, reps[hit // len(g0_stack)], found[hit])

    # keys of h B for h in (1, *g0_stack) and B live, h-major, so that the
    # first len(live) of them (h = 1) are the representatives A themselves
    live = np.flatnonzero(labels == np.arange(len(mats)))
    hs = np.concatenate([np.eye(mats.shape[1])[None], g0_stack])
    moved = np.einsum("hij,ljk->hlik", hs, mats[live][:, :, split:])
    members, bounds = _key_buckets(moved.reshape(-1, *moved.shape[2:]))
    del moved
    # buckets come by first member: those past the anchors hold none
    anchored = np.searchsorted(members[bounds[:-1]], len(live))
    bucket, first, other = _pairs(members[:bounds[anchored]], bounds[:anchored + 1])
    h, b = np.divmod(other, len(live))
    a, b = live[first], live[b]
    keep = b != a
    bucket, a, h, b = bucket[keep], a[keep], h[keep], b[keep]
    _confirm(words, bucket, a, b, lambda s: lorentz_inverse(mats[a[s]]) @ hs[h[s]] @ mats[b[s]],
             split, tol, "double-class")
    return _components(labels, a, b)


def delta_spectrum(ball, u, cfg):
    """Delta values of the nontrivial class representatives of a reduced
    ball, sorted nondecreasing, as a table of OrbitEntry rows with delta
    and (M, N_u, Q_u) filled in."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    # ids number classes by first appearance: a representative is where the
    # running maximum steps up, and class 0, the identity's, is trivial
    reps = np.flatnonzero(np.diff(np.maximum.accumulate(ball.ids), prepend=0) > 0)
    if not reps.size:       # nothing to check or evaluate
        return OrbitTable(entries=())
    inv = invariants_stack(ball.mats[reps], u, cfg)
    rows = [OrbitEntry(ball.words[i], ball.mats[i], *row) for i, *row in zip(
        reps.tolist(), ball.lengths[reps].tolist(), ball.ids[reps].tolist(),
        inv.delta.tolist(), inv.M.tolist(), inv.N_u.tolist(), inv.Q_u.tolist())]
    rows.sort(key=lambda e: (e.delta, e.word))
    return OrbitTable(entries=tuple(rows))


def counting_function(table, x_grid):
    """pi(x) = #{classes with delta <= x} on the grid, plus the fitted
    log-log slope over the largest decade with nonzero counts."""
    deltas = np.asarray(sorted(e.delta for e in table.entries))
    pts = [(float(x), int(np.searchsorted(deltas, x, side="right"))) for x in x_grid]
    if not (table.entries and pts):
        raise ValueError("empty x_grid" if table.entries else "empty orbit table")
    xs = np.asarray([p[0] for p in pts])
    cs = np.asarray([p[1] for p in pts])
    x_max = xs.max()
    sel = (xs >= x_max / 10.0) & (cs >= 1)
    if sel.sum() >= 2 and np.log(xs[sel]).min() < np.log(xs[sel]).max():
        slope = float(np.polyfit(np.log(xs[sel]), np.log(cs[sel]), 1)[0])
    else:
        slope = float("nan")
    return pts, slope


def ordering_statistic(table, cfg):
    """delta_j * j^(-1/((d-n)/2 + 1/2)) over the sorted spectrum; a
    positive lower bound restates the growth of the ordered deltas."""
    deltas = np.asarray(sorted(e.delta for e in table.entries))
    if deltas.size == 0:
        raise ValueError("empty orbit table")
    j = np.arange(1, deltas.size + 1, dtype=float)
    expo = 1.0 / ((cfg.d - cfg.n) / 2.0 + 0.5)
    stats = deltas * j ** (-expo)
    return float(stats.min()), stats


def picard_generators():
    """Integer-translation and inversion generators acting on the upper
    half-space model over the Gaussian integers, via the spin cover."""
    T = spin_cover_so13(np.array([[1, 1], [0, 1]], dtype=complex))
    U = spin_cover_so13(np.array([[1, 1j], [0, 1]], dtype=complex))
    S = spin_cover_so13(np.array([[0, -1], [1, 0]], dtype=complex))
    return GeneratorSet(labels=("T", "U", "S"), matrices=(T, U, S))


def fuchsian_generators():
    """Integer translations and inversion of the real modular group, living
    inside the (d, n) = (3, 2) cycle block."""
    P = spin_cover_so13(np.array([[1, 1], [0, 1]], dtype=complex))
    Q = spin_cover_so13(np.array([[0, -1], [1, 0]], dtype=complex))
    return GeneratorSet(labels=("P", "Q"), matrices=(P, Q))


def cyclic_boost_generators(x=1.0, d=3):
    """Single hyperbolic generator; its ball is the cyclic group sample."""
    return GeneratorSet(labels=("A",), matrices=(make_boost(x, d),))
