"""Word balls in finitely generated discrete subgroups, coset reduction
relative to the cycle subgroup, delta spectra, and the counting function.

Elements are deduplicated by quantized matrix entries, with an audit on two
offset grids that catches rounding-boundary splits; each level of the word
ball is one stacked product.  Cosets of the cycle subgroup are grouped on
the same grids by class keys, projectors of normal rows (left) or columns
(double), and the key hits are confirmed in stacked block tests.  Classes
are labelled by their smallest member through min-label propagation.
Stacks are formed CHUNK matrices at a time.  Double cosets take the cycle
subgroup from a bounded ball, so double-coset reduction is approximate by
construction and reports the ball radius used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .cycles import cycle_invariants
from .lorentz import (
    CycleConfig,
    _block_offdiag_max,
    group_residual,
    is_lorentz,
    lorentz_inverse,
    make_boost,
    spin_cover_so13,
)

LENGTH_CAP = 12
# cell size of the word ball's dedup keys
QUANT = 1e-9
# cell size of the dedup audit grids and of the coset class keys
KEY_RES = 1e-6
# block-test tolerance confirming a coset class-key hit
COSET_TOL = 1e-8
# matrices per stacked product of the batched loops, bounding their temporaries
CHUNK = 1024


@dataclass(frozen=True)
class GeneratorSet:
    labels: tuple
    matrices: tuple
    includes_inverses: bool = False

    def __post_init__(self):
        if len(self.labels) != len(self.matrices):
            raise ValueError("labels and matrices must pair up")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be unique")
        for lab, g in zip(self.labels, self.matrices):
            if not is_lorentz(np.asarray(g), 1e-9):
                raise ValueError(
                    f"generator {lab!r} fails the group invariant "
                    f"g^T J g = J (residual {group_residual(np.asarray(g)):.3e})"
                )

    @property
    def d(self):
        return np.asarray(self.matrices[0]).shape[0] - 1

    def moves(self):
        """(label, matrix) pairs including inverses; an inverse equal to an
        existing move (involutions) is dropped, labels invert by swapcase."""
        out = [(lab, np.asarray(g, dtype=float)) for lab, g in zip(self.labels, self.matrices)]
        if not self.includes_inverses:
            have = list(out)
            for lab, g in zip(self.labels, self.matrices):
                gi = lorentz_inverse(np.asarray(g, dtype=float))
                if any(np.max(np.abs(gi - h)) < 1e-12 for _, h in have):
                    continue
                inv_lab = lab.swapcase() if lab.swapcase() != lab else lab + "~"
                out.append((inv_lab, gi))
                have.append((inv_lab, gi))
        return sorted(out, key=lambda kv: kv[0])

    @classmethod
    def from_json(cls, source):
        """Load {"d": ..., "generators": [{"label": ..., "matrix": [[...]]}]}
        from a dict, a JSON string, or a file path."""
        if isinstance(source, str):
            try:
                obj = json.loads(source)
            except json.JSONDecodeError:
                with open(source) as fh:
                    obj = json.load(fh)
        else:
            obj = source
        if not isinstance(obj, dict):
            raise ValueError(f"a generator set is a JSON object, got {type(obj).__name__}")
        d = int(obj["d"])
        labels, mats = [], []
        for item in obj["generators"]:
            labels.append(str(item["label"]))
            g = np.asarray(item["matrix"], dtype=float).reshape(d + 1, d + 1)
            mats.append(g)
        return cls(labels=tuple(labels), matrices=tuple(mats),
                   includes_inverses=bool(obj.get("includes_inverses", False)))

    def to_json(self):
        return {
            "d": self.d,
            "includes_inverses": self.includes_inverses,
            "generators": [
                {"label": lab, "matrix": [[float(x) for x in row] for row in np.asarray(g)]}
                for lab, g in zip(self.labels, self.matrices)
            ],
        }


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
    entries: tuple
    cfg: CycleConfig = None
    mode: str = "none"
    gamma0_max_len: int = 0

    def __len__(self):
        return len(self.entries)

    def class_ids(self):
        return sorted({e.coset_id for e in self.entries})

    def representatives(self):
        """First (minimal-word) entry of each class, in class-id order."""
        reps = {}
        for e in self.entries:
            if e.coset_id not in reps:
                reps[e.coset_id] = e
        return [reps[i] for i in sorted(reps)]

    def trivial_class_id(self):
        for e in self.entries:
            if e.word == "e":
                return e.coset_id
        return None


def _key(mat, quant):
    return np.round(mat / quant).astype(np.int64).tobytes()


def _keys(stack, quant):
    """_key of each matrix of a stack."""
    cells = np.round(stack / quant).astype(np.int64).reshape(len(stack), -1)
    return cells.view(f"V{cells.shape[1] * cells.itemsize}").ravel().tolist()


def ball_enumerate(gens, max_word_length, quant=QUANT, length_cap=LENGTH_CAP):
    """Breadth-first word ball: all distinct elements of word length up to
    ``max_word_length``, each with a shortest representing word (ties broken
    lexicographically by construction order).  Each level's products
    base @ move are formed as stacked products, base-major like the words.
    """
    if max_word_length > length_cap:
        raise ValueError(
            f"max_word_length {max_word_length} exceeds the cost guard {length_cap}; "
            "pass length_cap explicitly to override"
        )
    letters, steps = zip(*gens.moves())
    steps = np.asarray(steps)
    eye = np.eye(gens.d + 1)
    seen = {_key(eye, quant)}
    out = [("e", eye, 0)]
    frontier, words = eye[None], [""]
    bases = max(1, CHUNK // len(steps))
    for length in range(1, max_word_length + 1):
        fresh, new_words = [], []
        for c in range(0, len(frontier), bases):
            prods = (frontier[c:c + bases, None] @ steps[None]).reshape(-1, *eye.shape)
            hits = []
            for i, k in enumerate(_keys(prods, quant)):
                if k not in seen:
                    seen.add(k)
                    hits.append(i)
                    new_words.append(words[c + i // len(steps)] + letters[i % len(steps)])
            fresh.append(prods[hits])
        if not fresh:
            break
        # the copy drops the level's duplicate products
        frontier, words = np.concatenate(fresh), new_words
        out += [(w, m, length) for w, m in zip(words, frontier)]

    _audit_dedup(out)
    return [(w, m) for w, m, _ in out]


def _audit_dedup(items):
    """Catch rounding-boundary splits: group coarsely (two offset grids),
    merge pairs closer than 1e-12, reject ambiguous ones."""
    drop = set()
    for idxs in _grid_buckets(np.asarray([m.ravel() for _, m, _ in items])):
        for i, j in combinations(idxs, 2):
            a, b = items[i], items[j]
            gap = np.max(np.abs(a[1] - b[1]))
            if gap < 1e-12:
                drop.add(j)
            elif gap < 1e-8:
                raise RuntimeError(
                    f"dedup ambiguity between words {a[0]!r} and {b[0]!r} "
                    f"(entry gap {gap:.3e}); tighten the quantization"
                )
    for idx in sorted(drop, reverse=True):
        del items[idx]


def _grid_buckets(rows):
    """Index arrays, ascending and in order of first member, of the rows
    sharing a cell of one of two grids of spacing KEY_RES, offset by half a
    cell, so that values one grid splits at a boundary meet on the other."""
    buckets = []
    for grid, off in enumerate((0.0, 0.5)):
        cells = rows / KEY_RES
        cells += off
        cells = np.round(cells, out=cells).astype(np.int64)
        order = np.lexsort(cells.T)  # stable: members stay ascending
        cells = cells[order]
        edges = np.flatnonzero(np.r_[True, (cells[1:] != cells[:-1]).any(axis=1), True])
        multi = np.diff(edges) > 1
        buckets += [(order[a], grid, order[a:b])
                    for a, b in zip(edges[:-1][multi].tolist(), edges[1:][multi].tolist())]
    return [idxs for *_, idxs in sorted(buckets, key=lambda b: b[:2])]


def _key_buckets(cols):
    """_grid_buckets of the class keys C C^T / tr(C C^T) of the stacked
    column blocks C (upper triangles): an orthogonal factor acting on the
    columns cancels, and the scaling frees the key from the entries' size."""
    i, j = np.triu_indices(cols.shape[1])
    proj = np.einsum("nik,nik->ni", cols[:, i], cols[:, j])
    proj /= proj[:, i == j].sum(axis=1, keepdims=True)
    return _grid_buckets(proj)


def _pairs(buckets):
    """(bucket, first, other) index arrays pairing the first member of each
    bucket with each of its other members, in bucket order."""
    sizes = np.asarray([len(bk) - 1 for bk in buckets], dtype=np.intp)
    first = np.asarray([bk[0] for bk in buckets], dtype=np.intp)
    other = np.concatenate([bk[1:] for bk in buckets] or [first])
    return np.repeat(np.arange(len(buckets)), sizes), np.repeat(first, sizes), other


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


def coset_reduce(ball, cfg, mode="left", gamma0_max_len=4, tol=COSET_TOL, quant=QUANT):
    """Partition a deduplicated ball into left (or double) classes mod the
    cycle subgroup, keeping the first (minimal, lexicographic) word of each
    class as its representative.

    A left class G0 gamma is keyed by N^T N, N = gamma[n+1:, :]; a key hit
    that the block test of gamma' gamma^{-1} rejects at ``tol`` raises.
    """
    if mode not in ("left", "double"):
        raise ValueError("mode must be 'left' or 'double'")
    split = cfg.n + 1
    words = [w or "e" for w, _ in ball]
    lengths = [len(w) if w != "e" else 0 for w in words]
    mats = np.asarray([m for _, m in ball]).reshape(-1, cfg.d + 1, cfg.d + 1)
    n_el = len(ball)

    bucket, a, b = _pairs(_key_buckets(np.swapaxes(mats[:, split:, :], 1, 2)))
    _confirm(words, bucket, a, b, lambda s: mats[b[s]] @ lorentz_inverse(mats[a[s]]),
             split, tol, "left-class")
    labels = _components(np.arange(n_el), a, b)
    if mode == "double":
        labels = _merge_double(labels, words, lengths, mats, split, gamma0_max_len, tol, quant)

    # roots are first members: counting them numbers classes by first appearance
    ids = (np.cumsum(labels == np.arange(n_el)) - 1)[labels]
    entries = tuple(map(OrbitEntry, words, mats, lengths, ids.tolist()))
    return OrbitTable(entries=entries, cfg=cfg, mode=mode,
                      gamma0_max_len=gamma0_max_len if mode == "double" else 0)


def _merge_double(labels, words, lengths, mats, split, gamma0_max_len, tol, quant):
    """Merge left classes lying in one double coset, gamma0 ranging over the
    bounded cycle-subgroup ball: a hash join links rep and rep gamma0 when
    the latter is in the ball, and a key hit of C(gamma0 B) = gamma0 C(B)
    gamma0^T on C(A), A and B live representatives and C = gamma[:, n+1:]
    gamma[:, n+1:]^T, puts A^{-1} gamma0 B in the cycle subgroup.  Returns
    the merged labels."""
    in_g0 = _block_offdiag_max(mats, split) <= tol
    g0_stack = mats[(np.asarray(lengths) <= gamma0_max_len) & in_g0]
    reps = np.flatnonzero(labels == np.arange(len(mats)))
    index = {k: i for i, k in enumerate(_keys(mats, quant))}
    # ball index of rep @ gamma0, rep-major, -1 where it is not in the ball
    found = []
    step = max(1, CHUNK // max(1, len(g0_stack)))
    for c in range(0, len(reps), step):
        prods = mats[reps[c:c + step], None] @ g0_stack[None]
        found += [index.get(k, -1) for k in _keys(prods.reshape(-1, *mats.shape[1:]), quant)]
    del index  # the key pass below is the memory peak
    found = np.asarray(found, dtype=np.intp)
    hit = np.flatnonzero(found >= 0)
    labels = _components(labels, reps[hit // len(g0_stack)], found[hit])

    # keys of h B for h in (1, *g0_stack) and B live, h-major, so that the
    # first len(live) of them (h = 1) are the representatives A themselves
    live = np.flatnonzero(labels == np.arange(len(mats)))
    hs = np.concatenate([np.eye(mats.shape[1])[None], g0_stack])
    moved = np.einsum("hij,ljk->hlik", hs, mats[live][:, :, split:])
    # buckets come by first member: those past the anchors have none
    bucket, first, other = _pairs([bk for bk in _key_buckets(moved.reshape(-1, *moved.shape[2:]))
                                   if bk[0] < len(live)])
    del moved
    h, b = np.divmod(other, len(live))
    a, b = live[first], live[b]
    keep = b != a
    bucket, a, h, b = bucket[keep], a[keep], h[keep], b[keep]
    _confirm(words, bucket, a, b, lambda s: lorentz_inverse(mats[a[s]]) @ hs[h[s]] @ mats[b[s]],
             split, tol, "double-class")
    return _components(labels, a, b)


def delta_spectrum(table, u, cfg, tol=1e-9):
    """Delta values of the nontrivial class representatives, sorted
    nondecreasing.  Returns a new table whose entries are the
    representatives with delta and (M, N_u, Q_u) filled in."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    trivial = table.trivial_class_id()
    rows = []
    for e in table.representatives():
        if e.coset_id == trivial:
            continue
        inv = cycle_invariants(e.matrix, u, cfg, tol=tol)
        rows.append(replace(e, delta=float(inv.delta), M=inv.M, N_u=inv.N_u, Q_u=inv.Q_u))
    rows.sort(key=lambda e: (e.delta, e.word))
    return OrbitTable(entries=tuple(rows), cfg=cfg, mode=table.mode,
                      gamma0_max_len=table.gamma0_max_len)


def counting_function(table, x_grid):
    """pi(x) = #{classes with delta <= x} on the grid, plus the fitted
    log-log slope over the largest decade with nonzero counts."""
    if not table.entries:
        raise ValueError("empty orbit table")
    deltas = np.asarray(sorted(e.delta for e in table.entries))
    pts = [(float(x), int(np.searchsorted(deltas, x, side="right"))) for x in x_grid]
    xs = np.asarray([p[0] for p in pts])
    cs = np.asarray([p[1] for p in pts])
    x_max = xs.max()
    sel = (xs >= x_max / 10.0) & (cs >= 1)
    if sel.sum() >= 2 and np.log(xs[sel]).min() < np.log(xs[sel]).max():
        slope = float(np.polyfit(np.log(xs[sel]), np.log(cs[sel]), 1)[0])
    else:
        slope = float("nan")
    return pts, slope


def ordering_statistic(table, cfg, beta=0.5):
    """delta_j * j^(-1/((d-n)/2 + beta)) over the sorted spectrum; a
    positive lower bound restates the growth of the ordered deltas."""
    deltas = np.asarray(sorted(e.delta for e in table.entries))
    if deltas.size == 0:
        raise ValueError("empty orbit table")
    j = np.arange(1, deltas.size + 1, dtype=float)
    expo = 1.0 / ((cfg.d - cfg.n) / 2.0 + beta)
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
