"""Word balls in finitely generated discrete subgroups, coset reduction
relative to the cycle subgroup, delta spectra, and the counting function.

Elements are deduplicated by quantized matrix entries (products of
integer-seeded generators stay far apart), with an audit pass that catches
rounding-boundary splits.  Left cosets are detected by the block shape of
gamma' gamma^{-1}; double cosets additionally scan a bounded ball of the
cycle subgroup, so double-coset reduction is approximate by construction
and reports the ball radius used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .cycles import cycle_invariants
from .lorentz import (
    CycleConfig,
    group_residual,
    is_lorentz,
    lorentz_inverse,
    make_boost,
    spin_cover_so13,
)

LENGTH_CAP = 12


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


@dataclass(frozen=True, eq=False)
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
    quant: float = 1e-9

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


def ball_enumerate(gens, max_word_length, quant=1e-9, length_cap=LENGTH_CAP):
    """Breadth-first word ball: all distinct elements of word length up to
    ``max_word_length``, each with a shortest representing word (ties broken
    lexicographically by construction order).
    """
    if max_word_length > length_cap:
        raise ValueError(
            f"max_word_length {max_word_length} exceeds the cost guard {length_cap}; "
            "pass length_cap explicitly to override"
        )
    moves = gens.moves()
    d = gens.d
    eye = np.eye(d + 1)
    seen = {_key(eye, quant): 0}
    out = [("e", eye, 0)]
    frontier = [eye]
    frontier_words = [""]
    for length in range(1, max_word_length + 1):
        new_frontier, new_words = [], []
        for base, wbase in zip(frontier, frontier_words):
            for lab, g in moves:
                m = base @ g
                k = _key(m, quant)
                if k in seen:
                    continue
                seen[k] = len(out)
                word = wbase + lab
                out.append((word, m, length))
                new_frontier.append(m)
                new_words.append(word)
        frontier, frontier_words = new_frontier, new_words

    _audit_dedup(out, quant)
    return [(w, m) for w, m, _ in out]


def _audit_dedup(items, quant):
    """Catch rounding-boundary splits: group coarsely (two offset grids),
    merge pairs closer than 1e-12, reject ambiguous ones."""
    coarse = 1e-6
    buckets = {}
    for idx, (_, m, _) in enumerate(items):
        for off in (0.0, 0.5):
            k = (np.round(m / coarse + off).astype(np.int64) - np.int64(off > 0)).tobytes()
            buckets.setdefault(k, []).append(idx)
    drop = set()
    for idxs in buckets.values():
        if len(idxs) < 2:
            continue
        for i in range(len(idxs)):
            for j in range(i + 1, len(idxs)):
                a, b = items[idxs[i]], items[idxs[j]]
                gap = np.max(np.abs(a[1] - b[1]))
                if gap < 1e-12:
                    drop.add(max(idxs[i], idxs[j]))
                elif gap < 1e-8:
                    raise RuntimeError(
                        f"dedup ambiguity between words {a[0]!r} and {b[0]!r} "
                        f"(entry gap {gap:.3e}); tighten the quantization"
                    )
    for idx in sorted(drop, reverse=True):
        del items[idx]


def _offblock_ok(mats, split, tol):
    """Vector block test: True where the (n+1 | d-n) off-diagonal blocks vanish."""
    a = np.max(np.abs(mats[..., :split, split:]), axis=(-2, -1))
    b = np.max(np.abs(mats[..., split:, :split]), axis=(-2, -1))
    return np.maximum(a, b) <= tol


def coset_reduce(ball, cfg, mode="left", gamma0_max_len=4, tol=1e-8, quant=1e-9):
    """Partition a deduplicated ball into left (or double) classes mod the
    cycle subgroup, keeping the first (minimal, lexicographic) word of each
    class as its representative.
    """
    if mode not in ("left", "double"):
        raise ValueError("mode must be 'left' or 'double'")
    split = cfg.n + 1
    words = [w for w, _ in ball]
    mats = np.asarray([m for _, m in ball])
    n_el = len(ball)

    inv_reps = np.zeros((max(16, n_el // 8), cfg.d + 1, cfg.d + 1))
    n_reps = 0
    rep_ids = []
    class_of = np.full(n_el, -1, dtype=int)
    for i in range(n_el):
        if n_reps:
            prods = np.einsum("ij,rjk->rik", mats[i], inv_reps[:n_reps])
            hits = np.nonzero(_offblock_ok(prods, split, tol))[0]
        else:
            hits = []
        if len(hits):
            class_of[i] = hits[0]
        else:
            class_of[i] = n_reps
            if n_reps == inv_reps.shape[0]:
                inv_reps = np.concatenate([inv_reps, np.zeros_like(inv_reps)])
            inv_reps[n_reps] = lorentz_inverse(mats[i])
            n_reps += 1
            rep_ids.append(i)

    if mode == "double":
        class_of = _merge_double(ball, cfg, class_of, rep_ids, mats,
                                 gamma0_max_len, tol, quant)

    # renumber classes by first appearance
    remap, next_id = {}, 0
    ids = np.empty(n_el, dtype=int)
    for i in range(n_el):
        c = class_of[i]
        if c not in remap:
            remap[c] = next_id
            next_id += 1
        ids[i] = remap[c]
    entries = tuple(
        OrbitEntry(word=words[i] or "e", matrix=mats[i],
                   word_length=len(words[i]) if words[i] != "e" else 0,
                   coset_id=int(ids[i]))
        for i in range(n_el)
    )
    return OrbitTable(entries=entries, cfg=cfg, mode=mode,
                      gamma0_max_len=gamma0_max_len if mode == "double" else 0,
                      quant=quant)


def _merge_double(ball, cfg, class_of, rep_ids, mats, gamma0_max_len, tol, quant):
    """Merge left classes lying in one double coset: scan gamma0 in the
    bounded cycle-subgroup ball, following rep^{-1} gamma0 rep' block tests.
    A hash join over the enumerated ball handles the bulk; the pairwise pass
    covers translates that left the ball.
    """
    split = cfg.n + 1
    g0_ball = [m for (w, m) in ball
               if (len(w) if w != "e" else 0) <= gamma0_max_len
               and _offblock_ok(m[None], split, tol)[0]]
    if not g0_ball:
        return class_of
    g0_stack = np.asarray(g0_ball)

    parent = list(range(int(class_of.max()) + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    index = {_key(m, quant): i for i, (w, m) in enumerate(ball)}
    # hash join: rep * g0 found in the ball links two left classes
    for rid in rep_ids:
        prods = np.einsum("ij,gjk->gik", mats[rid], g0_stack)
        for p in prods:
            j = index.get(_key(p, quant))
            if j is not None:
                union(int(class_of[rid]), int(class_of[j]))

    # pairwise completion: A^{-1} g0 B in the cycle subgroup merges A, B
    live = sorted({find(int(class_of[r])) for r in rep_ids})
    rep_of = {}
    for rid in rep_ids:
        rep_of.setdefault(find(int(class_of[rid])), rid)
    live_reps = [rep_of[c] for c in live]
    inv_live = np.asarray([lorentz_inverse(mats[r]) for r in live_reps])
    for ai in range(len(live_reps)):
        a_cls = find(int(class_of[live_reps[ai]]))
        mids = np.einsum("ij,gjk->gik", inv_live[ai], g0_stack)
        for bi in range(ai + 1, len(live_reps)):
            b_cls = find(int(class_of[live_reps[bi]]))
            if a_cls == b_cls:
                continue
            prods = np.einsum("gij,jk->gik", mids, mats[live_reps[bi]])
            if bool(_offblock_ok(prods, split, tol).any()):
                union(a_cls, b_cls)
    return np.asarray([find(int(c)) for c in class_of])


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
                      gamma0_max_len=table.gamma0_max_len, quant=table.quant)


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
    if sel.sum() >= 2 and len(np.unique(np.log(xs[sel]))) >= 2:
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


def write_orbit_csv(table, fh, tolerances=None):
    """word,len,M,N,Q,delta,coset_id rows with a reproducible header."""
    fh.write(f"# mode={table.mode} gamma0_max_len={table.gamma0_max_len} "
             f"quant={table.quant!r}\n")
    if tolerances:
        items = " ".join(f"{k}={v!r}" for k, v in sorted(tolerances.items()))
        fh.write(f"# tolerances: {items}\n")
    fh.write("word,len,M,N,Q,delta,coset_id\n")
    for e in table.entries:
        fh.write(f"{e.word},{e.word_length},{e.M!r},{e.N_u!r},{e.Q_u!r},"
                 f"{e.delta!r},{e.coset_id}\n")


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
