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
whole, so a hash collision never merges two rows.  Rows are grouped one
way: each is labelled by the first row whose cells equal its own.  A level
of the word ball labels its products after the ball's elements, whose
hashes the enumeration keeps in ball order, and keeps the products that
are their own first; the audit and the class keys label rows on each of
two grids, and a key hit pairs a row with its first.  Only the double
pass's join of rep gamma0 on the ball sorts the ball's hashes into an
index of hashes and ball positions.  The left labels are cached on the
ball, so a double reduction after a left one on the same ball pays for
one left pass.

Memory: every stage holds the ball's matrices once, plus O(N) integers.
Stacks and cell rows are formed CHUNK rows at a time: hashes come from one
pass over the rows, and cells are formed again only for the rows whose
hash ties a neighbour's or, in the join, hits an index entry.  The word
ball keeps a level's new products as (hash, position) and forms each one
it keeps once, into the ball's one stack, which grows level by level.  The
words are spelled on demand from one parent position and one move index per
element, so the ball holds no string per element.

Double cosets take the cycle subgroup from a bounded ball, so double-coset
reduction is approximate by construction and reports the ball radius used.
Only the delta spectrum builds one ``OrbitEntry`` row per class
representative, from one stacked factorization of all representatives.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from . import _checks
from .cycles import invariants_stack
from .lorentz import (TOL_G0, _block_offdiag_max, _check_dimension, _element, check_membership,
                      lorentz_inverse, make_boost, spin_cover_so13)

LENGTH_CAP = 12
# cell size of the word ball's dedup keys
QUANT = 1e-9
# cell size of the dedup audit grids and of the coset class keys
KEY_RES = 1e-6
# largest entry gap at which two matrices are one element
SAME_GAP = 1e-12
# largest entry gap at which the dedup audit refuses two matrices as neither
# one element nor clearly two
AMBIGUOUS_GAP = 1e-8
# matrices or rows per block of the batched loops, bounding their temporaries
CHUNK = 1024


@dataclass(frozen=True)
class GeneratorSet:
    labels: tuple
    matrices: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.matrices):
            raise ValueError("labels and matrices must pair up")
        if not self.labels:
            raise ValueError("a generator set needs at least one generator")
        bad = [lab for lab in self.labels if not isinstance(lab, str)]
        if bad:     # moves() inverts a label by swapcase
            raise ValueError(f"generator labels must be str, got {bad[0]!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be unique")
        shapes = sorted({np.shape(g) for g in self.matrices})
        if len(shapes) != 1:
            raise ValueError(f"generator matrices must share one shape, got {shapes}")
        for lab, g in zip(self.labels, self.matrices):
            _element(g, what=f"generator {lab!r}")

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
        d = obj["d"]
        if type(d) is not int:
            raise ValueError(f"d must be a JSON integer, got {d!r}")
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


class Words(Sequence):
    """The words of a word ball, a read-only sequence like a tuple of str,
    spelled on demand: word k is the word of ``parent[k]`` followed by
    ``letters[move[k]]``, word 0 the identity "e"."""
    __slots__ = ("_letters", "_parent", "_move")

    def __init__(self, letters, parent, move):
        self._letters, self._parent, self._move = letters, parent, move

    def _spell(self, k):
        backwards = []
        while k:
            backwards.append(self._letters[self._move[k]])
            k = self._parent[k]
        return "".join(reversed(backwards)) or "e"

    def __len__(self):
        return len(self._parent)

    def __getitem__(self, i):
        k = range(len(self))[i]
        return tuple(map(self._spell, k)) if isinstance(i, slice) else self._spell(k)

    def __iter__(self):
        return map(self._spell, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (tuple, Words)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True, eq=False)
class Ball:
    """A word ball: ``words`` (a sequence of str like a tuple, the identity
    "e" first; a ``Words`` spelling them on demand from parent and move
    arrays when the ball comes from ``ball_enumerate``), ``mats``
    (their (N, d+1, d+1) stack), ``lengths`` (word lengths) and ``ids``
    (class ids numbered by first appearance; ``np.arange(N)`` when fresh),
    with the cycle-subgroup radius of a double reduction and the dedup cell
    size ``quant`` the ball was built with, which coset reduction reuses."""
    words: Sequence
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
    c = stack.reshape(len(stack), math.prod(stack.shape[1:])) / quant
    return np.round(c, out=c).astype(np.int64)


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


def _hashes(n, rows_of, grids):
    """The hashes of n rows on each grid, one row of hashes per grid:
    ``rows_of`` gives the rows of an index array, formed once per CHUNK
    rows, and each grid maps them to their cell rows."""
    out = np.empty((len(grids), n), dtype=np.uint64)
    for c in range(0, n, CHUNK):
        rows = rows_of(np.arange(c, min(c + CHUNK, n)))
        for g, cells_of in enumerate(grids):
            out[g, c:c + CHUNK] = _hash(cells_of(rows))
    return out


def _firsts(cells_of, hashes):
    """The first of each row's equal rows: the smallest row whose cells
    (``cells_of`` of an index array) equal its own, one label per row.
    Rows sort by their hashes, and only the rows sharing a hash with a
    neighbour have their cells formed, CHUNK rows at a time, to compare
    with that neighbour; should unequal rows share a hash, all rows sort by
    their cells."""
    order = np.argsort(hashes)
    ordered = hashes[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    del ordered
    shared = ~new
    shared[:-1] |= ~new[1:]
    shared = np.flatnonzero(shared)
    for c in range(0, len(shared), CHUNK):
        at = shared[max(c - 1, 0):c + CHUNK]  # overlapping the last window by a row
        cells = cells_of(order[at])
        if (cells[1:] != cells[:-1]).any(axis=1)[~new[at[1:]]].any():
            cells = cells_of(np.arange(len(order)))
            order = np.lexsort(cells.T)
            cells = cells[order]
            new[1:] = (cells[1:] != cells[:-1]).any(axis=1)
            break
    first = np.empty(len(order), dtype=np.intp)
    first[order] = np.minimum.reduceat(order, np.flatnonzero(new))[np.cumsum(new) - 1]
    return first


def _lookup(index, cells_at, cells, hashes):
    """The position held in ``index``, (sorted hashes, their positions),
    for each query row (``cells``, ``hashes``), or -1 where it is absent.
    ``cells_at`` gives the cell rows of an array of indexed positions; they
    are formed only where a query's hash hits, and a hash run of several
    rows is walked to the row equal to the query."""
    index_hashes, index_pos = index
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
        live, p = live[hit], index_pos[p[hit]]
        equal = (cells_at(p) == cells[live]).all(axis=1)
        found[live[equal]] = p[equal]
        live = live[~equal]
        pos[live] += 1
    return found


def _products(frontier, steps, pos, out=None):
    """The products frontier[base] @ steps[move] at the positions
    pos = base * len(steps) + move of a level."""
    base, move = np.divmod(pos, len(steps))
    return np.matmul(frontier[base], steps[move], out=out)


def _fresh(mats, level, steps, hashes, quant):
    """(hashes, positions) of the products base @ move of the last level,
    mats[level:], that equal no element of the ball ``mats`` (whose cell
    hashes are ``hashes``, in ball order) and no earlier product, positions
    ascending.  The products are hashed CHUNK at a time, then labelled by
    ``_firsts`` after the ball's elements, so formed again only where
    hashes tie."""
    frontier, n = mats[level:], len(mats)
    bases = max(1, CHUNK // len(steps))
    hashes = [hashes]
    for c in range(0, len(frontier), bases):
        prods = (frontier[c:c + bases, None] @ steps[None]).reshape(-1, *steps.shape[1:])
        hashes.append(_hash(_cells(prods, quant)))
    hashes = np.concatenate(hashes)

    def cells_of(rows):     # rows below n are the ball's, the rest products
        cells = np.empty((len(rows), steps[0].size), dtype=np.int64)
        ball = rows < n
        cells[ball] = _cells(mats[rows[ball]], quant)
        cells[~ball] = _cells(_products(frontier, steps, rows[~ball] - n), quant)
        return cells

    pos = np.flatnonzero(_firsts(cells_of, hashes)[n:] == np.arange(n, len(hashes)))
    return hashes[n + pos], pos


def ball_enumerate(gens, max_word_length, quant=QUANT):
    """Breadth-first word ball: all distinct elements of word length up to
    ``max_word_length`` (at most LENGTH_CAP), each with a shortest
    representing word (ties broken lexicographically by construction
    order).  Each level's products base @ move are formed as stacked
    products, base-major like the words, and labelled by their cells after
    the ball's elements (``_fresh``); a product that is its own first is
    kept, formed once more into the ball's one stack of matrices, and its
    hash appended to the ball's hashes; its base's position and its move
    are kept to spell its word (``Words``).
    """
    _checks.integer(max_word_length=max_word_length)
    if not 1 <= max_word_length <= LENGTH_CAP:
        raise ValueError(f"max_word_length must be in [1, {LENGTH_CAP}], got {max_word_length!r}")
    _checks.positive(quant=quant)
    letters, steps = zip(*gens.moves())
    steps = np.asarray(steps)
    mats = np.eye(gens.d + 1)[None]     # the ball so far, level by level
    hashes = _hash(_cells(mats, quant))  # its cell hashes, in ball order
    level, sizes = 0, [1]   # the last level starts at mats[level]
    parent, move = [np.zeros(1, dtype=np.intp)], [np.zeros(1, dtype=np.intp)]
    for length in range(1, max_word_length + 1):
        if level == len(mats):      # the last level is empty
            break
        new, pos = _fresh(mats, level, steps, hashes, quant)
        grown = np.empty((len(mats) + len(pos), *mats.shape[1:]))
        grown[:len(mats)] = mats
        for c in range(0, len(pos), CHUNK):
            _products(mats[level:], steps, pos[c:c + CHUNK], out=grown[len(mats) + c:][:CHUNK])
        base, step = np.divmod(pos, len(steps))
        parent.append(level + base)
        move.append(step)
        level, mats = len(mats), grown
        sizes.append(len(pos))
        hashes = np.concatenate([hashes, new])
    hashes = new = pos = base = step = None  # freed before the audit

    parent, move = np.concatenate(parent), np.concatenate(move)
    words = Words(letters, parent, move)
    keep = _audit_dedup(words, mats)
    lengths = np.repeat(np.arange(len(sizes)), sizes)
    if len(keep) < len(mats):   # renumber the parents to ball positions
        at = np.full(len(mats), -1)
        at[keep] = np.arange(len(keep))
        parent = at[parent[keep]]
        if (parent < 0).any():
            raise RuntimeError("the dedup audit dropped the parent of the kept word "
                               f"{words[keep[np.argmax(parent < 0)]]!r}")
        mats, lengths, words = mats[keep], lengths[keep], Words(letters, parent, move[keep])
    return Ball(words=words, mats=mats, lengths=lengths, ids=np.arange(len(mats)), quant=quant)


def _audit_dedup(words, mats):
    """Catch rounding-boundary splits: group coarsely (two offset grids),
    drop the later member of pairs closer than SAME_GAP, reject ambiguous
    ones, closer than AMBIGUOUS_GAP.  Returns the indices kept, ascending."""
    keep = np.ones(len(mats), dtype=bool)
    first = _grid_buckets(len(mats), lambda rows: mats[rows].reshape(len(rows), -1))
    buckets = {}    # (first row, grid): the rows sharing a cell, ascending
    for grid, row in zip(*np.nonzero(first != np.arange(len(mats)))):
        buckets.setdefault((first[grid, row], grid), [first[grid, row]]).append(row)
    for bucket in sorted(buckets):
        for i, j in combinations(buckets[bucket], 2):
            gap = np.max(np.abs(mats[i] - mats[j]))
            if gap < SAME_GAP:
                keep[j] = False
            elif gap < AMBIGUOUS_GAP:
                raise RuntimeError(
                    f"dedup ambiguity between words {words[i]!r} and {words[j]!r} "
                    f"(entry gap {gap:.3e}); a larger quant (CLI --tol quant=) may merge them"
                )
    return np.flatnonzero(keep)


def _grid_buckets(n, rows_of):
    """The rows sharing a cell of one of two grids of spacing KEY_RES,
    offset by half a cell, so that values one grid splits at a boundary
    meet on the other, as a (2, n) array of ``_firsts`` labels, the
    unshifted grid's first.  ``rows_of`` gives the float rows of an index
    array of the n rows; one pass over them, CHUNK rows at a time, hashes
    both grids' cells, and cells are formed again only where hashes tie."""
    def scaled(rows):
        return rows_of(rows) / KEY_RES

    grids = [lambda s, off=off: np.round(s + off).astype(np.int64) for off in (0.0, 0.5)]
    hashes = _hashes(n, scaled, grids)
    return np.stack([_firsts(lambda rows: cells_of(scaled(rows)), h)
                     for cells_of, h in zip(grids, hashes)])


_triu_indices = functools.cache(np.triu_indices)     # formed once per size, not per block


def _key_buckets(n, cols_of):
    """_grid_buckets of the class keys C C^T / tr(C C^T) of n stacked
    column blocks C (upper triangles), ``cols_of`` giving the blocks of an
    index array of them: an orthogonal factor acting on the columns
    cancels, and the scaling frees the key from the entries' size."""
    def keys(rows):
        cols = cols_of(rows)
        i, j = _triu_indices(cols.shape[1])
        proj = np.einsum("nik,nik->ni", cols[:, i], cols[:, j])
        proj /= proj[:, i == j].sum(axis=1, keepdims=True)
        return proj
    return _grid_buckets(n, keys)


def _pairs(first, heads):
    """(bucket, first, other) index arrays pairing each row with its first
    on each grid (``_grid_buckets`` labels ``first``), for firsts below
    ``heads``, ordered by first row, then grid, then row; a bucket is a
    (first row, grid).  A pair both grids hold is kept on the first grid."""
    grid, other = np.nonzero((first != np.arange(first.shape[1])) & (first < heads))
    head = first[grid, other]
    keep = (grid == 0) | (first[0, other] != head)
    bucket = (2 * head + grid)[keep]
    order = np.argsort(bucket, kind="stable")
    return bucket[order], head[keep][order], other[keep][order]


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
    _check_dimension(ball.mats, cfg)
    _checks.nonnegative(tol=tol)
    _checks.integer(gamma0_max_len=gamma0_max_len, at_least=0)
    split = cfg.n + 1
    labels = ball._left_labels.get((split, tol))
    if labels is None:
        words, mats = ball.words, ball.mats
        bucket, a, b = _pairs(_key_buckets(
            len(mats), lambda rows: np.swapaxes(mats[rows, split:, :], 1, 2)), len(mats))
        _confirm(words, bucket, a, b, lambda s: mats[b[s]] @ lorentz_inverse(mats[a[s]]),
                 split, tol, "left-class")
        labels = _components(np.arange(len(ball)), a, b)
        labels.flags.writeable = False
        ball._left_labels[split, tol] = labels
    if mode == "double":
        labels = _merge_double(labels, ball, cfg, gamma0_max_len, tol)

    # roots are first members: counting them numbers classes by first appearance
    ids = (np.cumsum(labels == np.arange(len(ball))) - 1)[labels]
    return replace(ball, ids=ids, gamma0_max_len=gamma0_max_len if mode == "double" else 0)


def _join_moved_reps(labels, mats, quant, g0_stack):
    """Labels after linking each representative rep with rep @ gamma0, for
    gamma0 in ``g0_stack``, where the latter is in the ball (a join on the
    hashes of the ball's cells)."""
    reps = np.flatnonzero(labels == np.arange(len(mats)))

    def cells_at(pos):
        return _cells(mats[pos], quant)

    hashes = _hashes(len(mats), mats.__getitem__, [lambda m: _cells(m, quant)])[0]
    order = np.argsort(hashes)
    index = hashes[order], order
    joined = [np.zeros((2, 0), dtype=np.intp)]
    step = max(1, CHUNK // len(g0_stack))
    for c in range(0, len(reps), step):
        cells = _cells((mats[reps[c:c + step], None] @ g0_stack[None]).reshape(-1, *mats.shape[1:]),
                       quant)
        at = _lookup(index, cells_at, cells, _hash(cells))
        hit = np.flatnonzero(at >= 0)
        joined.append(np.stack([reps[c + hit // len(g0_stack)], at[hit]]))
    del index
    return _components(labels, *np.concatenate(joined, axis=1))


def _merge_double(labels, ball, cfg, gamma0_max_len, tol):
    """Merge left classes lying in one double coset, gamma0 ranging over the ball's
    members of lengths 1..gamma0_max_len that check_membership puts in G0 at ``tol``:
    a join on the hashes of the ball's cells (of its own quant) links rep and rep
    gamma0 when the latter is in the ball, and a key hit of C(gamma0 B) = gamma0 C(B)
    gamma0^T on C(A), A and B live representatives and C = gamma[:, n+1:] gamma[:, n+1:]^T,
    puts A^{-1} gamma0 B in the cycle subgroup.  Returns the merged labels."""
    words, mats, quant, split = ball.words, ball.mats, ball.quant, cfg.n + 1
    # lengths from 1: the identity, the ball's length-0 element, would only
    # link each rep to itself and repeat the key pass's h = 1 rows
    g0_stack = mats[(ball.lengths >= 1) & (ball.lengths <= gamma0_max_len)]
    g0_stack = g0_stack[check_membership(g0_stack, "G0", cfg, tol)]
    if len(g0_stack):
        labels = _join_moved_reps(labels, mats, quant, g0_stack)

    # keys of h B for h in (1, *g0_stack) and B live, h-major, so that the
    # first len(live) of them (h = 1) are the representatives A themselves
    live = np.flatnonzero(labels == np.arange(len(mats)))
    hs = np.concatenate([np.eye(mats.shape[1])[None], g0_stack])

    def moved(rows):
        h, b = np.divmod(rows, len(live))
        return np.einsum("rij,rjk->rik", hs[h], mats[live[b], :, split:])

    # pairs whose first is an anchor, one of the representatives A
    bucket, first, other = _pairs(_key_buckets(len(hs) * len(live), moved), len(live))
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


def _deltas(table):
    """The table's deltas, sorted; an empty table is refused."""
    if not table.entries:
        raise ValueError("empty orbit table")
    return np.asarray(sorted(e.delta for e in table.entries))


def counting_function(table, x_grid):
    """pi(x) = #{classes with delta <= x} on the grid, plus the fitted
    log-log slope over the largest decade with nonzero counts."""
    _checks.finite(x_grid=x_grid)
    deltas = _deltas(table)
    xs = np.asarray(x_grid, dtype=float)
    if not xs.size:
        raise ValueError("empty x_grid")
    cs = np.searchsorted(deltas, xs, side="right")
    pts = list(zip(xs.tolist(), cs.tolist()))
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
    deltas = _deltas(table)
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
