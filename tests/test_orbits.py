import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcycles import cycles as cy
from hypcycles import lorentz as lz
from hypcycles import orbits as ob

CFG = lz.CycleConfig(3, 2)


def test_cyclic_ball():
    gens = ob.cyclic_boost_generators(1.0, 3)
    ball = ob.ball_enumerate(gens, 3)
    assert len(ball) == 7
    words = set(ball.words)
    assert words == {"e", "A", "a", "AA", "aa", "AAA", "aaa"}


def test_finite_cyclic_ball_stops_growing():
    # a rotation of order 4: R and r at length 1, RR at length 2, and no new
    # element after that, so longer balls hold the same four
    quarter = lz.embed_rotation(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    gens = ob.GeneratorSet(labels=("R",), matrices=(quarter,))
    assert [len(ob.ball_enumerate(gens, n)) for n in (1, 2, 4, 6)] == [3, 4, 4, 4]
    assert ob.ball_enumerate(gens, 6).words == ("e", "R", "r", "RR")


def test_dedup_collapses_inverse_pairs():
    gens = ob.picard_generators()
    ball = ob.ball_enumerate(gens, 2)
    # Tt never appears: it collapses onto e
    assert all(not (w[:1] == "T" and w[1:2] == "t") for w in ball.words)
    mats = ball.mats
    # dedup soundness: entries pairwise separated
    for i in range(len(ball)):
        gaps = np.max(np.abs(mats - mats[i]), axis=(1, 2))
        gaps[i] = np.inf
        assert gaps.min() > 1e-8


def _keys(stack, quant):
    """The dedup keys of a stack: each matrix's cells as bytes."""
    return [row.tobytes() for row in ob._cells(stack, quant)]


def _key(mat, quant=ob.QUANT):
    """The dedup key of one matrix."""
    return _keys(mat[None], quant)[0]


def test_ball_closure_under_generators():
    gens = ob.picard_generators()
    ball = ob.ball_enumerate(gens, 3)
    keys = set(_keys(ball.mats, 1e-9))
    moves = gens.moves()
    for w, m in zip(ball.words, ball.mats):
        if (len(w) if w != "e" else 0) < 3:
            for _, g in moves:
                assert _key(m @ g, 1e-9) in keys


def _ball_per_word(gens, max_word_length, quant=ob.QUANT):
    """The word ball formed one product base @ move at a time: the reference
    for the stacked products of ball_enumerate."""
    moves = gens.moves()
    eye = np.eye(gens.d + 1)
    seen = {_key(eye, quant)}
    out = [("e", eye, 0)]
    frontier = [("", eye)]
    for length in range(1, max_word_length + 1):
        new = []
        for wbase, base in frontier:
            for lab, g in moves:
                m = base @ g
                k = _key(m, quant)
                if k not in seen:
                    seen.add(k)
                    out.append((wbase + lab, m, length))
                    new.append((wbase + lab, m))
        frontier = new
    words = [w for w, _, _ in out]
    mats = np.asarray([m for _, m, _ in out])
    keep = ob._audit_dedup(words, mats)
    return ob.Ball(words=tuple(words[i] for i in keep), mats=mats[keep],
                   lengths=np.asarray([n for _, _, n in out])[keep], ids=np.arange(len(keep)),
                   quant=quant)


def _conjugated_picard(x, v):
    h = lz.make_boost(x, 3) @ lz.make_unipotent(np.array([v, 0.0]), 3)
    h_inv = lz.lorentz_inverse(h)
    pic = ob.picard_generators()
    return ob.GeneratorSet(labels=pic.labels,
                           matrices=tuple(h_inv @ g @ h for g in pic.matrices))


def _ball_outcome(enumerate_ball, gens, length, quant):
    """(words, matrix bytes, word lengths) of a ball, or the message it raises."""
    try:
        ball = enumerate_ball(gens, length, quant)
    except RuntimeError as exc:
        return str(exc)
    return ball.words, ball.mats.tobytes(), ball.lengths.tolist()


def _straddling_copies(gap):
    """The identity and two copies of Picard 'USU' that differ by ``gap`` in
    entry (0, 0), placed either side of a boundary of the QUANT cells."""
    _, U, S = ob.picard_generators().matrices
    g = U @ S @ U
    edge = (np.floor(g[0, 0] / ob.QUANT) + 0.5) * ob.QUANT
    a, b = g.copy(), g.copy()
    a[0, 0], b[0, 0] = edge - gap / 2, edge + gap / 2
    return np.stack([np.eye(4), a, b])


def test_dedup_audit_merges_a_rounding_boundary_split():
    # copies 3e-13 apart fall in different dedup cells, so the word ball
    # keeps both; the audit drops the later one
    stack = _straddling_copies(3e-13)
    cells = ob._cells(stack, ob.QUANT)
    assert not np.array_equal(cells[1], cells[2])
    assert ob._audit_dedup(["e", "USU", "uSu"], stack).tolist() == [0, 1]
    # copies 1e-10 apart are neither one element nor clearly two
    with pytest.raises(RuntimeError, match="dedup ambiguity between words 'USU' and 'uSu'"):
        ob._audit_dedup(["e", "USU", "uSu"], _straddling_copies(1e-10))


@pytest.mark.parametrize("make_gens, length, quant", [
    (ob.picard_generators, 6, ob.QUANT),
    (ob.fuchsian_generators, 8, ob.QUANT),
    (lambda: ob.cyclic_boost_generators(1.0, 3), 5, ob.QUANT),
    (lambda: _conjugated_picard(-1.0, 2.0), 6, ob.QUANT),
    (lambda: _conjugated_picard(2.0, 0.0), 6, ob.QUANT),
    (lambda: _conjugated_picard(-2.0, -1.0), 4, ob.QUANT),
    # cells finer than the rounding: the audit drops 379 of the 924
    # elements, so the kept words sit at positions apart from the enumeration's
    (lambda: _conjugated_picard(0.3, 0.2), 5, 1e-14),
], ids=["picard", "modular", "cyclic", "conj(-1,2)", "conj(2,0)", "conj(-2,-1)-raises",
        "conj(0.3,0.2)-fine-cells"])
def test_stacked_ball_matches_per_word_ball(make_gens, length, quant):
    gens = make_gens()
    got = _ball_outcome(ob.ball_enumerate, gens, length, quant)
    assert got == _ball_outcome(_ball_per_word, gens, length, quant)
    if isinstance(got, str):
        assert got.startswith("dedup ambiguity between words")


def test_each_word_spells_its_matrix():
    # the product of the move matrices along each word is its matrix
    gens = ob.picard_generators()
    moves = dict(gens.moves())
    assert all(len(label) == 1 for label in moves)
    ball = ob.ball_enumerate(gens, 6)
    for word, mat in zip(ball.words, ball.mats):
        prod = np.eye(4)
        for label in ("" if word == "e" else word):
            prod = prod @ moves[label]
        assert np.max(np.abs(prod - mat)) <= 1e-9 * np.max(np.abs(mat)), word


def test_words_behave_as_a_tuple():
    ball = ob.ball_enumerate(ob.picard_generators(), 3)
    words = tuple(ball.words)
    assert len(words) == len(ball) and words[:4] == ("e", "S", "T", "U")
    assert ball.words == words and words == ball.words and ball.words != list(words)
    assert ball.words[1:7:2] == words[1:7:2] and ball.words[-1] == words[-1]
    assert "TUS" in ball.words and "Tt" not in ball.words
    assert ball.words.index("TUS") == words.index("TUS") and repr(ball.words) == repr(words)
    with pytest.raises(IndexError):
        ball.words[len(words)]


def test_a_kept_word_through_a_dropped_parent_is_refused(monkeypatch):
    # a ball's words are spelled through parents renumbered to ball positions,
    # which needs the parent of each kept word kept; no audit measured drops
    # one, and an audit that did would get a refusal rather than a wrong word
    drop = ob.ball_enumerate(ob.picard_generators(), 2).words.index("S")
    monkeypatch.setattr(ob, "_audit_dedup",
                        lambda words, mats: np.delete(np.arange(len(mats)), drop))
    with pytest.raises(RuntimeError,
                       match="^the dedup audit dropped the parent of the kept word 'ST'$"):
        ob.ball_enumerate(ob.picard_generators(), 2)


def test_dedup_ambiguity_names_the_setting_that_resolves_it():
    # conjugation grows the entries until two distinct rounding cells hold
    # one element; a coarser cell merges them, a finer one cannot
    gens = _conjugated_picard(-2.0, -1.0)
    with pytest.raises(RuntimeError,
                       match=r"^dedup ambiguity .* a larger quant \(CLI --tol quant=\)"):
        ob.ball_enumerate(gens, 6)
    assert len(ob.ball_enumerate(gens, 6, quant=1e-7)) == 1454


def test_double_join_uses_the_cells_the_ball_was_built_with():
    # the rep gamma0 join looks products up in the ball's own dedup cells; a
    # record of the same ball claiming finer cells misses some products and
    # joins other classes, so the join must read the quant of the ball
    ball = ob.ball_enumerate(_conjugated_picard(-2.0, -1.0), 6, quant=1e-7)
    assert ball.quant == 1e-7
    assert ob.ball_enumerate(ob.picard_generators(), 2).quant == ob.QUANT
    double = ob.coset_reduce(ball, CFG, mode="double")
    assert double.quant == 1e-7
    finer = ob.coset_reduce(dataclasses.replace(ball, quant=1e-11), CFG, mode="double")
    assert finer.ids.tolist() != double.ids.tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=300))))
def test_components_label_each_class_by_its_smallest_member(case):
    n, pairs = case
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = root(x), root(y)
        parent[max(rx, ry)] = min(rx, ry)
    want = [root(x) for x in range(n)]
    a = np.asarray([x for x, _ in pairs], dtype=np.intp)
    b = np.asarray([y for _, y in pairs], dtype=np.intp)
    assert ob._components(np.arange(n), a, b).tolist() == want
    # merging in two rounds, as the double pass does, gives the same labels
    half = len(pairs) // 2
    first = ob._components(np.arange(n), a[:half], b[:half])
    assert ob._components(first, a[half:], b[half:]).tolist() == want


def _grid_buckets_lexsort(rows):
    """The labels of _grid_buckets by a lexsort over whole cell rows, as
    lists: the oracle for the hashed cell keys."""
    labels = []
    for off in (0.0, 0.5):
        cells = rows / ob.KEY_RES
        cells += off
        cells = np.round(cells, out=cells).astype(np.int64)
        order = np.lexsort(cells.T)  # stable: the first of equal rows leads them
        cells = cells[order]
        new = np.r_[True, (cells[1:] != cells[:-1]).any(axis=1)]
        first = np.empty(len(order), dtype=np.intp)
        first[order] = order[np.flatnonzero(new)[np.cumsum(new) - 1]]
        labels.append(first.tolist())
    return labels


def _picard8_left():
    ob.coset_reduce(ob.ball_enumerate(ob.picard_generators(), 8), CFG, mode="left")


def _conjugated_picard6_double():
    ob.coset_reduce(ob.ball_enumerate(_conjugated_picard(-1.0, 2.0), 6), CFG, mode="double")


@pytest.mark.parametrize("run, n_calls", [(_picard8_left, 2), (_conjugated_picard6_double, 3)],
                         ids=["picard8 audit, left keys", "conj picard6 audit, left, double keys"])
def test_grid_buckets_equal_the_lexsort_buckets(monkeypatch, run, n_calls):
    # every row set the pipeline buckets: the dedup audit's matrix entries
    # and the class keys of the left (and double) pass
    seen = []
    grid_buckets = ob._grid_buckets
    monkeypatch.setattr(ob, "_grid_buckets", lambda n, rows_of: seen.append(
        rows_of(np.arange(n))) or grid_buckets(n, rows_of))
    run()
    assert len(seen) == n_calls
    for rows in seen:
        got = grid_buckets(len(rows), lambda r: rows[r]).tolist()
        assert got == _grid_buckets_lexsort(rows)
    assert (np.asarray(got) != np.arange(len(rows))).any()     # the class keys do share cells


def test_grid_buckets_split_rows_whose_hashes_collide(monkeypatch):
    # cell rows (2^62, s 2^62, 0, 0) and (0, 0, 0, 0) share the hash
    # 2^62 (k0 + s k1) = 0 mod 2^64 when the odd multipliers have
    # k0 + s k1 = 0 mod 4
    k0, k1 = (int(k) for k in ob._multipliers(4)[:2])
    s = 1 if (k0 + k1) % 4 == 0 else -1
    a = np.zeros(4)
    b = np.array([2.0 ** 62, s * 2.0 ** 62, 0.0, 0.0]) * ob.KEY_RES
    rows = np.stack([a, b, a, b])
    cells = ob._cells(rows, ob.KEY_RES)
    assert cells[1].tolist() == [2 ** 62, s * 2 ** 62, 0, 0]
    hashes = ob._hash(cells)
    assert hashes[0] == hashes[1]
    want = _grid_buckets_lexsort(rows)
    assert want == [[0, 1, 0, 1], [0, 1, 0, 1]]
    for chunk in (1, 2, ob.CHUNK):  # tied rows are compared in windows of CHUNK rows
        monkeypatch.setattr(ob, "CHUNK", chunk)
        assert ob._grid_buckets(len(rows), lambda r: rows[r]).tolist() == want, chunk
    # a lookup walks the shared hash to the equal row
    order = np.argsort(hashes[:2])
    index = hashes[:2][order], order
    absent = np.array([[1, 2, 3, 4]])
    queries = np.concatenate([cells[[1, 0, 1]], absent])
    assert ob._lookup(index, lambda p: cells[p], queries, ob._hash(queries)).tolist() \
        == [1, 0, 1, -1]


def _pipeline_outcome(gens, length):
    """(words, matrix bytes, left ids, double ids) of a ball, or the message
    of the first stage that raises."""
    out = []
    try:
        ball = ob.ball_enumerate(gens, length)
        out += [ball.words, ball.mats.tobytes()]
        for mode in ("left", "double"):
            out.append(ob.coset_reduce(ball, CFG, mode=mode).ids.tolist())
    except RuntimeError as exc:
        out.append(str(exc))
    return out


@pytest.mark.parametrize("make_gens, length", [
    (ob.picard_generators, 5),
    (lambda: _conjugated_picard(-1.0, 2.0), 5),
    (lambda: _conjugated_picard(-2.0, -1.0), 4),
], ids=["picard", "conj(-1,2)", "conj(-2,-1)-raises"])
def test_the_block_size_changes_no_outcome(monkeypatch, make_gens, length):
    # stacks, cell rows and tie windows formed a few rows at a time give
    # the words, matrices, classes and errors of whole CHUNK blocks
    gens = make_gens()
    want = _pipeline_outcome(gens, length)
    assert isinstance(want[-1], str) == (length == 4)
    for chunk in (1, 7):
        monkeypatch.setattr(ob, "CHUNK", chunk)
        assert _pipeline_outcome(gens, length) == want, chunk


@pytest.mark.parametrize("make_gens", [
    ob.picard_generators,
    lambda: _conjugated_picard(-1.0, 2.0),
], ids=["picard", "conj(-1,2)"])
def test_colliding_hashes_change_no_outcome(monkeypatch, make_gens):
    # hashes cut to their 3 low bits make unequal products share hashes with
    # the ball's elements and with each other, so every level's labels come
    # from the lexsort of ball and product rows together
    gens = make_gens()
    want = _pipeline_outcome(gens, 5)
    assert not isinstance(want[-1], str)
    hash_ = ob._hash
    monkeypatch.setattr(ob, "_hash", lambda cells: hash_(cells) & np.uint64(7))
    for chunk in (1, 7, ob.CHUNK):
        monkeypatch.setattr(ob, "CHUNK", chunk)
        assert _pipeline_outcome(gens, 5) == want, chunk


def test_dedup_audit_keeps_an_element_alone_in_its_cells():
    # every entry lies in the lower half of its audit cell, so its cell index
    # is the same on both offset grids; a bucket shared by the two grids would
    # pair the element with itself and drop it as its own duplicate
    assert ob._audit_dedup(["e"], (np.eye(4) + 2e-7)[None]).tolist() == [0]


def _traced_peak(run):
    """(tracemalloc's peak while ``run`` runs, above what was traced when it
    started; its result)."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = run()
    return tracemalloc.get_traced_memory()[1] - start, out


def test_each_orbit_stage_holds_the_ball_once():
    """Peaks in stacks of the ball's matrices (mats.nbytes) at Picard
    length 8: the word ball from its start, the dedup audit and the left
    and double passes above the ball they keep.  Each holds the matrices
    once plus O(N) integers, and cell rows CHUNK rows at a time; holding a
    second copy of the stack, or every row's cells, breaks these bounds."""
    gens = ob.picard_generators()
    tracemalloc.start()
    try:
        enumerated, ball = _traced_peak(lambda: ob.ball_enumerate(gens, 8))
        audit, _ = _traced_peak(lambda: ob._audit_dedup(ball.words, ball.mats))
        left, _ = _traced_peak(lambda: ob.coset_reduce(ball, CFG, mode="left"))
        double, _ = _traced_peak(lambda: ob.coset_reduce(ball, CFG, mode="double"))
    finally:
        tracemalloc.stop()
    assert len(ball) == 9492
    stacks = dict(zip(("enumerate", "audit", "left", "double"),
                      np.array([enumerated, audit, left, double]) / ball.mats.nbytes))
    assert stacks["enumerate"] <= 3.5, stacks
    assert stacks["audit"] <= 1.0 and stacks["left"] <= 1.0, stacks
    assert stacks["double"] <= 2.0, stacks


def test_the_ball_keeps_no_string_per_element():
    # the words are spelled on demand from two integer arrays over the
    # enumeration, so the ball retains little beyond its matrices
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ball = ob.ball_enumerate(ob.picard_generators(), 8)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained <= 1.4 * ball.mats.nbytes, retained / ball.mats.nbytes


@pytest.mark.parametrize("make_gens, length", [
    (ob.picard_generators, 6),
    (lambda: ob.cyclic_boost_generators(1.0, 3), 5),
], ids=["picard", "cyclic"])
def test_ball_record_through_coset_reduction(make_gens, length):
    ball = ob.ball_enumerate(make_gens(), length)
    n_el = len(ball)
    assert ball.words[0] == "e" and ball.lengths[0] == 0
    assert ball.lengths.tolist() == [0] + [len(w) for w in ball.words[1:]]
    assert ball.mats.shape == (n_el, 4, 4)
    assert ball.ids.tolist() == list(range(n_el))
    for mode in ("left", "double"):
        table = ob.coset_reduce(ball, CFG, mode=mode)
        assert table.words == ball.words
        assert table.mats.tobytes() == ball.mats.tobytes()
        assert table.lengths.tolist() == ball.lengths.tolist()
        assert table.gamma0_max_len == (4 if mode == "double" else 0)
        first = {}
        for i, cid in enumerate(table.ids.tolist()):
            first.setdefault(cid, i)
        assert list(first) == list(range(len(first)))   # numbered by first appearance
        del first[table.ids[0]]                          # the identity's class
        spec = ob.delta_spectrum(table, [0.0], CFG)
        got = {e.coset_id: (e.word, e.word_length, e.matrix.tobytes()) for e in spec.entries}
        assert got == {cid: (ball.words[i], len(ball.words[i]), ball.mats[i].tobytes())
                       for cid, i in first.items()}
        assert all(type(e.coset_id) is int and type(e.word_length) is int
                   and type(e.delta) is float for e in spec.entries)


def test_ball_regression_counts():
    # pinned after the first run of the bundled experiment
    gens = ob.picard_generators()
    assert len(ob.ball_enumerate(gens, 4)) == 196
    assert len(ob.ball_enumerate(gens, 6)) == 1454


def test_length_cap_guard():
    gens = ob.picard_generators()
    # 0 and -1 once returned the identity ball
    for length in (13, 0, -1):
        with pytest.raises(ValueError, match=r"max_word_length must be in \[1, 12\]"):
            ob.ball_enumerate(gens, length)
    with pytest.raises(ValueError):
        ob.GeneratorSet(labels=("X",), matrices=(np.diag([2.0, 1, 1, 1]),))


def test_coset_reduce_block_ball_is_single_class():
    gens = ob.fuchsian_generators()
    ball = ob.ball_enumerate(gens, 4)
    table = ob.coset_reduce(ball, CFG, mode="left")
    assert len(table.class_ids()) == 1
    assert table.words[0] == "e" and table.ids[0] == 0


def test_left_cosets_are_merged_by_construction():
    gens = ob.picard_generators()
    mats = dict(zip(gens.labels, gens.matrices))
    ball = ob.ball_enumerate(gens, 4)
    table = ob.coset_reduce(ball, CFG, mode="left")
    index = dict(zip(_keys(table.mats, 1e-9), table.ids.tolist()))
    # g0 gamma lands in the class of gamma for block elements g0
    for g0w, gw in [("T", "U"), ("S", "U"), ("TS", "UT")]:
        g0 = np.linalg.multi_dot([mats[c] for c in g0w]) if len(g0w) > 1 else mats[g0w]
        g = np.linalg.multi_dot([mats[c] for c in gw]) if len(gw) > 1 else mats[gw]
        a = index.get(_key(g0 @ g, 1e-9))
        b = index.get(_key(g, 1e-9))
        assert a is not None and b is not None
        assert a == b


@pytest.mark.parametrize("length, n_left, n_double", [(4, 39, 15), (6, 217, 46)],
                         ids=["4", "6"])
def test_coset_regression_counts(length, n_left, n_double):
    gens = ob.picard_generators()
    ball = ob.ball_enumerate(gens, length)
    left = ob.coset_reduce(ball, CFG, mode="left")
    double = ob.coset_reduce(ball, CFG, mode="double")
    assert len(left.class_ids()) == n_left
    assert len(double.class_ids()) == n_double
    # double classes only merge left classes
    assert len(double.class_ids()) <= len(left.class_ids())


@pytest.mark.parametrize("length, g0_len, n_keys", [(6, 4, 8), (8, 4, 22), (8, 6, 22)],
                         ids=["6-4", "8-4", "8-6"])
def test_the_normal_block_key_is_a_class_invariant(length, g0_len, n_keys):
    # G0 is block-diagonal with a +-1 normal block, so gamma_33^2 is constant on every left
    # and double class; 2 gamma is an integer matrix for Picard, so 4 gamma_33^2 is an integer
    ball = ob.ball_enumerate(ob.picard_generators(), length)
    key = ball.mats[:, 3, 3] ** 2
    for mode in ("left", "double"):
        ids = ob.coset_reduce(ball, CFG, mode=mode, gamma0_max_len=g0_len).ids
        lo, hi = np.full(ids.max() + 1, np.inf), np.full(ids.max() + 1, -np.inf)
        np.minimum.at(lo, ids, key)
        np.maximum.at(hi, ids, key)
        assert np.array_equal(lo, hi), mode
    assert len(np.unique(key)) == n_keys
    assert np.array_equal(4.0 * key, np.round(4.0 * key))


def _exact_ball(gens, max_word_length):
    """The word ball in exact arithmetic, as the stack of its matrices 2 gamma:
    a breadth-first search in int64, deduplicated by equality of the
    flattened matrices.  Refuses a set whose 2 gamma is not an integer
    matrix, and raises before an entry could pass 2^31."""
    moves = []
    for label, g in gens.moves():
        if not np.array_equal(np.rint(2.0 * g), 2.0 * g):
            raise ValueError(f"2 gamma is not an integer matrix for {label!r}")
        moves.append(np.rint(2.0 * g).astype(np.int64))
    moves = np.stack(moves)
    # an entry of 4 gamma gamma' is a sum of d+1 products of entries
    growth = int(np.abs(moves).max()) * moves.shape[-1]
    level = [2 * np.eye(gens.d + 1, dtype=np.int64)]
    seen, ball = {level[0].tobytes()}, list(level)
    for _ in range(max_word_length):
        if int(np.abs(np.stack(level)).max()) * growth >= 2 ** 31:
            raise OverflowError("an entry of 2 gamma could pass 2^31")
        fours = (np.stack(level)[:, None] @ moves[None]).reshape(-1, *moves.shape[1:])
        assert not (fours % 2).any()
        level = []
        for twice in fours // 2:
            if twice.tobytes() not in seen:
                seen.add(twice.tobytes())
                level.append(twice)
        if not level:
            break
        ball += level
    return np.stack(ball)


@pytest.mark.parametrize("gens, length, n_ball, n_left", [
    (ob.picard_generators, 6, 1454, 217),
    (ob.picard_generators, 8, 9492, 1247),
    (ob.fuchsian_generators, 6, 104, 1),
], ids=["picard6", "picard8", "modular6"])
def test_ball_and_left_classes_equal_an_exact_integer_search(gens, length, n_ball, n_left):
    # every 2 gamma is an integer matrix here, so the ball and its left
    # classes have a witness free of rounding: the same elements, and the
    # left class G0 gamma keyed by gamma's last row up to sign (n = 2)
    gens = gens()
    exact = _exact_ball(gens, length)
    ball = ob.ball_enumerate(gens, length)
    left = ob.coset_reduce(ball, CFG, mode="left")
    twice = np.rint(2.0 * ball.mats)
    assert np.max(np.abs(twice - 2.0 * ball.mats)) < 1e-9
    twice = twice.astype(np.int64)
    assert len(exact) == len(ball) == n_ball
    assert {g.tobytes() for g in exact} == {g.tobytes() for g in twice}

    def partition(keys, stack):
        classes = {}
        for key, g in zip(keys, stack):
            classes.setdefault(key, set()).add(g.tobytes())
        return {frozenset(c) for c in classes.values()}

    rows = exact[:, -1]
    signs = np.sign(rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)])
    exact_classes = partition([r.tobytes() for r in rows * signs[:, None]], exact)
    assert len(exact_classes) == n_left
    assert partition(left.ids.tolist(), twice) == exact_classes


def test_the_exact_search_refuses_what_it_cannot_hold():
    with pytest.raises(ValueError, match="not an integer matrix"):
        _exact_ball(ob.cyclic_boost_generators(1.0), 2)
    # the translation by 1000: 2T holds 1,000,002, so a product with a move
    # could pass 2^31, and length 2 is refused before it is formed
    big = lz.spin_cover_so13(np.array([[1, 1000], [0, 1]], dtype=complex))
    gens = ob.GeneratorSet(labels=("T",), matrices=(big,))
    assert len(_exact_ball(gens, 1)) == 3
    with pytest.raises(OverflowError, match="2\\^31"):
        _exact_ball(gens, 2)


@pytest.mark.parametrize("gens, length, g0_len, n_double, digest, n_products, n_key_rows", [
    (ob.picard_generators, 6, 4, 46, "598d740c854e433a", 217 * 35, 53 * 36),
    (ob.picard_generators, 8, 4, 214, "90497bae363ca47e", 1247 * 35, 251 * 36),
    (ob.picard_generators, 6, 0, 50, "773a1a82ab823c24", 0, 217),
    (lambda: _conjugated_picard(-1.0, 2.0), 6, 4, 46, "598d740c854e433a", 217 * 35, 53 * 36),
    (lambda: _conjugated_picard(-1.0, 2.0), 6, 0, 50, "773a1a82ab823c24", 0, 217),
], ids=["picard6", "picard8", "picard6-g0-0", "conj(-1,2)", "conj(-1,2)-g0-0"])
def test_double_pass_leaves_the_identity_out_of_gamma0(monkeypatch, gens, length, g0_len, n_double,
                                                       digest, n_products, n_key_rows):
    # gamma0 = e, the length-0 element, would only join each representative
    # to itself and repeat the key pass's h = 1 rows, changing no class: the
    # ids are those of the pass that kept it (sha256 prefix of their list)
    products, key_rows = [], []
    join, key_buckets = ob._join_moved_reps, ob._key_buckets

    def spy_join(labels, mats, quant, g0_stack):
        assert not any(np.array_equal(g, np.eye(4)) for g in g0_stack)
        products.append(np.count_nonzero(labels == np.arange(len(labels))) * len(g0_stack))
        return join(labels, mats, quant, g0_stack)

    monkeypatch.setattr(ob, "_join_moved_reps", spy_join)
    monkeypatch.setattr(ob, "_key_buckets",
                        lambda n, cols_of: key_rows.append(n) or key_buckets(n, cols_of))
    ids = ob.coset_reduce(ob.ball_enumerate(gens(), length), CFG, mode="double",
                          gamma0_max_len=g0_len).ids.tolist()
    assert len(set(ids)) == n_double
    assert hashlib.sha256(str(ids).encode()).hexdigest()[:16] == digest
    assert products == ([n_products] if n_products else [])
    assert key_rows[-1] == n_key_rows


def test_double_reduction_starts_from_the_cached_left_labels(monkeypatch):
    gens = ob.picard_generators()
    alone = ob.coset_reduce(ob.ball_enumerate(gens, 6), CFG, mode="double")
    calls = []
    key_buckets = ob._key_buckets
    monkeypatch.setattr(ob, "_key_buckets",
                        lambda n, cols_of: calls.append(n) or key_buckets(n, cols_of))
    ball = ob.ball_enumerate(gens, 6)
    left = ob.coset_reduce(ball, CFG, mode="left")
    double = ob.coset_reduce(ball, CFG, mode="double")
    assert double.ids.tolist() == alone.ids.tolist()
    assert left.ids.tolist() == ob.coset_reduce(ball, CFG, mode="left").ids.tolist()
    # one left pass, keyed once per element, then the double pass's keys
    assert calls.count(len(ball)) == 1 and len(calls) == 2
    # a ball with new matrices does not inherit the labels
    h = lz.make_boost(0.5, 3) @ lz.make_unipotent(np.array([-0.5, 0.0]), 3)
    conj = dataclasses.replace(ball, mats=lz.lorentz_inverse(h) @ ball.mats @ h)
    calls.clear()
    got = ob.coset_reduce(conj, CFG, mode="double")
    assert calls.count(len(ball)) == 1
    fresh = ob.Ball(words=ball.words, mats=conj.mats, lengths=ball.lengths, ids=ball.ids)
    assert got.ids.tolist() == ob.coset_reduce(fresh, CFG, mode="double").ids.tolist()


def test_coset_reduce_under_conjugation_is_right_or_raises():
    # h^-1 gamma h with h = a_x n_v in the cycle subgroup maps left and double
    # classes onto themselves, so the partition of the conjugated ball is the
    # unconjugated one; entries grow to ~e^6, past what the absolute block
    # tolerance resolves, and then a reduction must raise, never differ
    ball = ob.ball_enumerate(ob.picard_generators(), 6)
    want = {mode: ob.coset_reduce(ball, CFG, mode=mode).ids.tolist()
            for mode in ("left", "double")}
    raises = dict.fromkeys(want, 0)
    for x in np.linspace(-3.0, 3.0, 7):
        for v in np.linspace(-3.0, 3.0, 7):
            h = lz.make_boost(x, 3) @ lz.make_unipotent(np.array([v, 0.0]), 3)
            h_inv = lz.lorentz_inverse(h)
            conj = dataclasses.replace(ball, mats=np.asarray([h_inv @ g @ h for g in ball.mats]))
            for mode, ids in want.items():
                try:
                    table = ob.coset_reduce(conj, CFG, mode=mode)
                except RuntimeError as exc:
                    assert re.search(r"key collision between words '\w+' and '\w+'", str(exc))
                    raises[mode] += 1
                    continue
                assert table.ids.tolist() == ids, (mode, x, v)
    # the raises of a block test of each key hit on its own: confirming the
    # hits in stacks must not lose a relation to rounding more often
    assert raises["left"] <= 2 and raises["double"] <= 16, raises


def _pairs_with_repeats(first, heads):
    """_pairs keeping every occurrence: a pair that both offset grids hold
    comes twice.  The reference for the repeat-free pairs."""
    hits = sorted((f, grid, row) for grid, labels in enumerate(first.tolist())
                  for row, f in enumerate(labels) if f != row and f < heads)
    head, grid, row = np.array(hits, dtype=np.intp).reshape(-1, 3).T
    return 2 * head + grid, head, row


def _assert_pairs_are_first_occurrences(first, heads):
    ref = _pairs_with_repeats(first, heads)
    kept, tested = [], set()
    for i, hit in enumerate(zip(ref[1].tolist(), ref[2].tolist())):
        if hit not in tested:
            tested.add(hit)
            kept.append(i)
    got = ob._pairs(first, heads)
    assert all(np.array_equal(g, r[kept]) for g, r in zip(got, ref))


def test_each_key_hit_is_block_tested_once(monkeypatch):
    # the left pass at Picard length 6 finds 2474 key hits, 1237 distinct
    seen = []
    pairs = ob._pairs
    monkeypatch.setattr(ob, "_pairs", lambda first, heads: seen.append(
        (first, heads)) or pairs(first, heads))
    ob.coset_reduce(ob.ball_enumerate(ob.picard_generators(), 6), CFG, mode="double")
    assert len(seen) == 2
    monkeypatch.undo()
    for first, heads in seen:
        _assert_pairs_are_first_occurrences(first, heads)
    assert len(_pairs_with_repeats(*seen[0])[0]) == 2474 and len(pairs(*seen[0])[0]) == 1237


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=80), st.integers(0, 80))
def test_pairs_of_overlapping_buckets_are_first_occurrences(steps, heads):
    # one coordinate at multiples of 0.3 cells: the two grids' buckets
    # overlap in every way, a row sharing a bucket with other heads on each;
    # firsts at or past ``heads`` pair with nothing, as in the double pass
    rows = np.asarray(steps, dtype=float)[:, None] * (0.3 * ob.KEY_RES)
    _assert_pairs_are_first_occurrences(ob._grid_buckets(len(rows), lambda r: rows[r]), heads)


@pytest.mark.parametrize("x, v, n_raised", [(0.0, 0.0, 0), (3.0, -3.0, 2), (-3.0, -3.0, 1),
                                              (2.0, -2.0, 1)])
def test_repeat_free_pairs_give_the_same_classes_and_errors(monkeypatch, x, v, n_raised):
    # a repeat's first occurrence comes in an earlier bucket, so the first
    # bucket holding a failure, its worst hit and the message stay the same
    h = lz.make_boost(x, 3) @ lz.make_unipotent(np.array([v, 0.0]), 3)
    ball = ob.ball_enumerate(ob.picard_generators(), 6)
    conj = dataclasses.replace(ball, mats=lz.lorentz_inverse(h) @ ball.mats @ h)

    def outcomes():
        out = []
        for mode in ("left", "double"):
            try:
                # a fresh record, so no left labels cached by a run carry over
                out.append(ob.coset_reduce(dataclasses.replace(conj), CFG, mode=mode).ids.tolist())
            except RuntimeError as exc:
                out.append(str(exc))
        return out

    got = outcomes()
    assert sum(isinstance(o, str) for o in got) == n_raised
    monkeypatch.setattr(ob, "_pairs", _pairs_with_repeats)
    assert got == outcomes()


@pytest.mark.parametrize("gens", [ob.picard_generators(), _conjugated_picard(0.5, -0.5)],
                         ids=["picard", "conjugated"])
def test_double_pass_gamma0_is_the_loop_of_check_membership(gens, monkeypatch):
    # the members of lengths 1..r that check_membership puts in G0 at the pass's tol
    ball = ob.ball_enumerate(gens, 8)
    seen, join = [], ob._join_moved_reps
    monkeypatch.setattr(ob, "_join_moved_reps",
                        lambda labels, mats, quant, g0: seen.append(g0) or join(labels, mats, quant, g0))
    ob.coset_reduce(ball, CFG, mode="double", gamma0_max_len=4)
    want = [g for g, n in zip(ball.mats, ball.lengths)
            if 1 <= n <= 4 and lz.check_membership(g, "G0", CFG, lz.TOL_G0)]
    assert len(seen) == 1 and len(want) > 30
    assert seen[0].tobytes() == np.asarray(want).tobytes()


def test_double_reduction_sound_and_complete():
    gens = ob.picard_generators()
    ball = ob.ball_enumerate(gens, 3)
    table = ob.coset_reduce(ball, CFG, mode="double", gamma0_max_len=3)
    g0ball = [m for w, m in zip(ball.words, ball.mats)
              if lz.check_membership(m, "G0", CFG, tol=1e-8) and (len(w) if w != "e" else 0) <= 3]
    mats = list(ball.mats)
    n_el = len(mats)

    def edge(i, j):
        # exact left-coset edge, or a middle certificate from the bounded ball
        if lz.check_membership(mats[j] @ lz.lorentz_inverse(mats[i]), "G0", CFG, tol=1e-8):
            return True
        inv_i = lz.lorentz_inverse(mats[i])
        return any(lz.check_membership(inv_i @ g0 @ mats[j], "G0", CFG, tol=1e-8)
                   for g0 in g0ball)

    # transitive closure of the full element-pair relation: the coarsest
    # partition any bounded-ball certificate can justify
    adj = np.eye(n_el, dtype=bool)
    for i in range(n_el):
        for j in range(i + 1, n_el):
            if edge(i, j):
                adj[i, j] = adj[j, i] = True
    reach = adj.copy()
    for _ in range(n_el):
        new = (reach @ reach) | reach
        if (new == reach).all():
            break
        reach = new
    got = table.ids
    # soundness: everything the reducer merged has a certificate chain
    for cid in set(got.tolist()):
        members = np.nonzero(got == cid)[0]
        for j in members[1:]:
            assert reach[members[0], j]
    # completeness against the stated rep-pair scan: representatives of
    # distinct classes admit no direct single-certificate merge
    reps = {}
    for i, cid in enumerate(got.tolist()):
        reps.setdefault(cid, i)
    rep_list = sorted(reps.values())
    for ai in range(len(rep_list)):
        for bi in range(ai + 1, len(rep_list)):
            i, j = rep_list[ai], rep_list[bi]
            if got[i] != got[j]:
                assert not edge(i, j)


def _spectrum_per_representative(ball, u, cfg):
    """delta_spectrum's rows from cycle_invariants of each class's first
    member, the identity's class left out: the oracle for the stacked
    factorization.  Returns the message of the first check that fails."""
    first = {}
    for i, cid in enumerate(ball.ids.tolist()):
        first.setdefault(cid, i)
    del first[ball.ids[0]]
    rows = []
    try:
        for i in first.values():
            inv = cy.cycle_invariants(ball.mats[i], u, cfg)
            rows.append((ball.words[i], int(ball.lengths[i]), int(ball.ids[i]),
                         float(inv.delta), inv.M, inv.N_u, inv.Q_u))
    except ValueError as exc:
        return str(exc)
    return sorted(rows, key=lambda r: (r[3], r[0]))


def _spectrum_rows(ball, u, cfg):
    try:
        spec = ob.delta_spectrum(ball, u, cfg)
    except ValueError as exc:
        return str(exc)
    return [(e.word, e.word_length, e.coset_id, e.delta, e.M, e.N_u, e.Q_u)
            for e in spec.entries]


def _random_ball(d, n_el, seed):
    """The identity and n_el random_lorentz elements, each its own class."""
    rng = np.random.default_rng(seed)
    mats = np.asarray([np.eye(d + 1)] + [lz.random_lorentz(rng, d) for _ in range(n_el)])
    return ob.Ball(words=("e",) + tuple(f"g{i}" for i in range(n_el)), mats=mats,
                   lengths=np.r_[0, np.ones(n_el, dtype=int)], ids=np.arange(n_el + 1))


def _spectrum_cases():
    picard8 = ob.coset_reduce(ob.ball_enumerate(ob.picard_generators(), 8), CFG, mode="double")
    conj6 = ob.coset_reduce(ob.ball_enumerate(_conjugated_picard(-1.0, 2.0), 6), CFG, mode="left")
    # entries near e^6: some representatives fail the group check
    ball6 = ob.coset_reduce(ob.ball_enumerate(ob.picard_generators(), 6), CFG, mode="left")
    h = lz.make_boost(3.0, 3) @ lz.make_unipotent(np.array([3.0, 0.0]), 3)
    big = dataclasses.replace(ball6, mats=lz.lorentz_inverse(h) @ ball6.mats @ h)
    # one class, so no representative: nothing is checked, as in a loop
    modular = ob.coset_reduce(ob.ball_enumerate(ob.fuchsian_generators(), 4), CFG, mode="left")
    yield "modular, no representative, wrong u", modular, np.zeros(3), CFG
    yield "picard8", picard8, np.array([0.3]), CFG
    yield "conj picard6", conj6, np.array([-0.4]), CFG
    yield "conj picard6 entries e^6", big, np.array([0.0]), CFG
    for d, n in ((4, 3), (5, 3)):
        cfg = lz.CycleConfig(d, n)
        ball = _random_ball(d, 40, 10 * d + n)
        u = np.random.default_rng(d).normal(size=n - 1)
        yield f"random {d},{n}", ball, u, cfg
        yield f"random {d},{n} wrong u", ball, np.zeros(n), cfg
        for bad in (1, 7):
            mats = ball.mats.copy()
            mats[bad] = np.diag([2.0] + [1.0] * d)
            off = dataclasses.replace(ball, mats=mats)
            yield f"random {d},{n} off the group at {bad}", off, u, cfg
            yield f"random {d},{n} off the group at {bad}, wrong u", off, np.zeros(n), cfg


def test_delta_spectrum_rows_equal_per_representative_invariants():
    raised = 0
    for name, ball, u, cfg in _spectrum_cases():
        want = _spectrum_per_representative(ball, u, cfg)
        got = _spectrum_rows(ball, u, cfg)
        assert got == want, name
        if isinstance(got, str):
            raised += 1
        else:
            assert all(type(v) is float for row in got for v in row[3:]), name
    assert raised == 11     # all but the four group elements with the right u


def test_delta_spectrum_sorted_and_left_constant():
    gens = ob.picard_generators()
    ball = ob.ball_enumerate(gens, 4)
    table = ob.coset_reduce(ball, CFG, mode="left")
    u = np.array([0.3])
    spec = ob.delta_spectrum(table, u, CFG)
    deltas = [e.delta for e in spec.entries]
    assert deltas == sorted(deltas)
    assert all(d >= 1.0 - 1e-12 for d in deltas)
    trivial = table.ids[table.words.index("e")]
    assert trivial not in {e.coset_id for e in spec.entries}
    # left-coset mates share delta
    by_class = {}
    for cid, m in zip(table.ids.tolist(), table.mats):
        by_class.setdefault(cid, []).append(m)
    checked = 0
    for cid, members in by_class.items():
        if cid == trivial or len(members) < 2:
            continue
        vals = [cy.delta_u(m, u, CFG) for m in members[:4]]
        assert max(vals) - min(vals) < 1e-8
        checked += 1
        if checked > 10:
            break
    assert checked > 0


def test_counting_function_step_and_monotone():
    gens = ob.picard_generators()
    ball = ob.ball_enumerate(gens, 4)
    spec = ob.delta_spectrum(ob.coset_reduce(ball, CFG, mode="double"), [0.0], CFG)
    grid = np.geomspace(0.5, max(e.delta for e in spec.entries) * 1.1, 50)
    pts, slope = ob.counting_function(spec, grid)
    counts = [c for _, c in pts]
    assert counts == sorted(counts)
    assert counts[-1] == len(spec.entries)
    assert counts[0] == 0  # grid starts below delta = 1
    assert np.isfinite(slope)
    with pytest.raises(ValueError):
        ob.counting_function(ob.OrbitTable(entries=()), grid)
    # an empty grid once failed inside a numpy reduction
    with pytest.raises(ValueError, match="empty x_grid"):
        ob.counting_function(spec, [])


def test_counting_all_unit_deltas_is_step():
    entries = tuple(ob.OrbitEntry(word=f"w{i}", matrix=np.eye(4), word_length=1,
                                  coset_id=i, delta=1.0) for i in range(5))
    table = ob.OrbitTable(entries=entries)
    pts, _ = ob.counting_function(table, [0.5, 0.99, 1.0, 2.0])
    assert [c for _, c in pts] == [0, 0, 5, 5]


def test_slope_is_nan_below_two_top_decade_points():
    # only x = 100 lies in the top decade [10, 100] of the grid
    table = ob.OrbitTable(entries=(ob.OrbitEntry("w", np.eye(4), 1, 1, delta=2.0),))
    pts, slope = ob.counting_function(table, [1.0, 3.0, 100.0])
    assert pts == [(1.0, 0), (3.0, 1), (100.0, 1)] and np.isnan(slope)


@pytest.mark.parametrize("call, message", [
    (lambda: ob.GeneratorSet(labels=("A", "B"), matrices=(np.eye(4),)),
     "labels and matrices must pair up"),
    (lambda: ob.GeneratorSet(labels=("A", "A"), matrices=(np.eye(4), np.eye(4))),
     "generator labels must be unique"),
    # each of these three once built, to fail in ball_enumerate or moves()
    (lambda: ob.GeneratorSet(labels=(), matrices=()),
     "a generator set needs at least one generator"),
    (lambda: ob.GeneratorSet(labels=("A", "B"), matrices=(np.eye(4), np.eye(5))),
     "generator matrices must share one shape, got [(4, 4), (5, 5)]"),
    (lambda: ob.GeneratorSet(labels=(1,), matrices=(np.eye(4),)),
     "generator labels must be str, got 1"),
    (lambda: ob.coset_reduce(ob.ball_enumerate(ob.picard_generators(), 2), CFG, mode="right"),
     "mode must be 'left' or 'double'"),
    (lambda: ob.ordering_statistic(ob.OrbitTable(entries=()), CFG), "empty orbit table"),
], ids=["unpaired-labels", "duplicate-labels", "empty-set", "mixed-shapes", "int-label",
        "coset-mode", "ordering-empty-table"])
def test_bad_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


@pytest.mark.parametrize("d, n", [(4, 2), (6, 2), (5, 3)])
def test_coset_reduce_refuses_a_cycle_config_of_another_d(monkeypatch, d, n):
    # the split n + 1 of (4, 2) or (6, 2) once gave the d = 3 ball's (3, 2)
    # partition, and (5, 3) divided by a zero key trace
    ball = ob.ball_enumerate(ob.picard_generators(), 4)
    monkeypatch.setattr(ob, "_key_buckets", lambda *args: pytest.fail("class keys formed"))
    for mode in ("left", "double"):
        with pytest.raises(ValueError, match="^matrix dimension does not match CycleConfig"):
            ob.coset_reduce(ball, lz.CycleConfig(d, n), mode=mode)


def test_ordering_statistic_positive():
    gens = ob.picard_generators()
    ball = ob.ball_enumerate(gens, 4)
    spec = ob.delta_spectrum(ob.coset_reduce(ball, CFG, mode="double"), [0.0], CFG)
    mn, stats = ob.ordering_statistic(spec, CFG)
    assert mn > 0
    assert len(stats) == len(spec.entries)


def test_generator_set_listing_its_inverses_gives_the_same_ball(tmp_path):
    # a file that lists the inverses (older files flag it with
    # "includes_inverses") has the moves and the ball of the bundled set
    gens = ob.picard_generators()
    obj = gens.to_json()
    obj["includes_inverses"] = True
    obj["generators"] += [
        {"label": lab, "matrix": [[float(x) for x in row] for row in g]}
        for lab, g in gens.moves() if lab not in gens.labels]
    assert [g["label"] for g in obj["generators"]] == ["T", "U", "S", "t", "u"]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(obj))
    listed = ob.GeneratorSet.from_json(str(path))
    moves, listed_moves = gens.moves(), listed.moves()
    assert [lab for lab, _ in listed_moves] == [lab for lab, _ in moves]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(listed_moves, moves))
    ball, listed_ball = ob.ball_enumerate(gens, 6), ob.ball_enumerate(listed, 6)
    assert listed_ball.words == ball.words
    assert np.array_equal(listed_ball.mats, ball.mats)


def test_generator_set_json_roundtrip(tmp_path):
    gens = ob.picard_generators()
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens.to_json()))
    back = ob.GeneratorSet.from_json(str(path))
    assert back.labels == gens.labels
    for a, b in zip(back.matrices, gens.matrices):
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-15

