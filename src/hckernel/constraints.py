"""Coloring polynomial and the per-twin-class constraint families.

For a twin class P of the host graph, the constraints describe necessary
conditions on the coloring of the open neighborhood N(P) so that P itself
(a clique) can still be colored:

* kind "P" rows say "any Delta(H)+1 neighbours cannot use Delta(H)+1
  distinct colors" via the distinct-color selector polynomial;
* kind "Q" rows forbid a neighborhood palette whose common neighborhood in
  the target has no clique as large as |P|.

Both families only mention indicator variables of vertices in N(P), and
every row has degree at most Delta(H).

Up to relabelling, the rows are the same for every neighborhood. A kind-P
row is one selector template over positions 0..Delta(H) per Delta(H)-color
subset: the selector pairs its k-th chosen vertex with the k-th color for
k < Delta(H) only, so (Delta(H)+1)-color subsets with the same Delta(H)
smallest colors give the same row, and the Delta(H)-subsets of all colors
but the last give each row once. The kind-Q color sequences of length k
depend only on the target and the class size capped at omega(H)+1. Both
pieces, and the row counts, are memoized on the ``PatternGraph`` and built
on first need, so ``iter_class_constraint_keys`` only relabels the pieces.
Only this module knows the families' shape: ``class_row_count``,
``monomial_size`` and ``closed_form_basis``, which writes down a basis of
every family, for every target and class size, without elimination.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .graphs import PatternGraph


def _selector_monomial_keys(rows: tuple[int, ...], cols: tuple[int, ...]) -> Iterator[tuple]:
    """The monomial keys of the distinct-color selector polynomial.

    One monomial per ordered selection of len(rows)-1 distinct rows; the
    k-th selected row is paired with the k-th column, so only the first
    len(rows)-1 columns are read. Keys are sorted (vertex, color) tuples.
    """
    q = len(rows)
    for sel in itertools.permutations(range(q), q - 1):
        yield tuple(sorted((rows[i], cols[k]) for k, i in enumerate(sel)))


def build_coloring_polynomial(q: int) -> tuple[tuple, ...]:
    """Degree q-1 polynomial over variables y[i,k], i in 1..q and k in
    1..q-1 (column q never occurs), as its sorted monomial keys.

    With each row choosing at most one color, it evaluates to 1 mod 2
    exactly when no color is chosen by two distinct rows and every column
    1..q-1 is chosen by some row; q! monomials in total (one monomial, the
    constant, for q = 1).
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    ids = tuple(range(1, q + 1))
    return tuple(sorted(_selector_monomial_keys(ids, ids)))


def evaluate(row: Iterable[tuple], chosen: Mapping[int, int]) -> int:
    """Row value mod 2 when each vertex in ``chosen`` takes its color there
    and every other vertex takes none.

    The indicator of (v, c) is 1 exactly when chosen maps v to c; a mapping
    holds at most one color per vertex.
    """
    total = 0
    for key in row:
        if all(chosen.get(v) == c for v, c in key):
            total ^= 1
    return total


def color_sequences(h: PatternGraph, class_size: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Kind-Q pieces: the length-k color sequences, in ``itertools.product``
    order, whose common neighborhood in the target has no clique of
    ``class_size`` colors.

    The answer depends only on the class size capped at omega(H)+1 (above
    that every sequence qualifies), so it is memoized on the pattern: one
    entry per capped size, holding the lists for k = 1, 2, ... up to the
    largest k asked for so far. A list has up to |V(H)|**k sequences and is
    built only once a neighborhood has k vertices.
    """
    cap = min(max(class_size, 0), h.clique_number + 1)
    lists = h._sequence_memo.get(cap, ())
    if len(lists) < k:
        # replaced whole, never appended to, so racing threads stay correct
        lists = h._sequence_memo[cap] = lists + tuple(
            tuple(x for x in itertools.product(h.color_ids, repeat=j)
                  if h.omega_of(h.common_neighborhood(x)) < cap)
            for j in range(len(lists) + 1, k + 1))
    return lists[k - 1]


def _selector_templates(h: PatternGraph) -> tuple[itemgetter, ...]:
    """Kind-P pieces: per Delta-subset y of all colors but the last, the
    keys of ``_selector_monomial_keys`` over positions 0..Delta, not vertices.

    A template is stored as one ``itemgetter`` that picks, monomial after
    monomial, every (position, color) pair from a table holding the pair
    (s[i], c) at ``i * |V(H)| + index of c``. Relabelling a sorted subset s
    is then one table build and one call per y; the result is already
    sorted, because i -> s[i] is increasing. Built on first use and
    memoized on the pattern (K9's template alone has 9! monomials).
    """
    got = h._selector_memo
    if got is None:
        d = h.max_degree
        colors = h.color_ids
        index = {c: i for i, c in enumerate(colors)}
        positions = tuple(range(d + 1))
        got = h._selector_memo = tuple(
            itemgetter(*(i * len(colors) + index[c]
                         for key in sorted(_selector_monomial_keys(positions, y))
                         for i, c in key))
            for y in itertools.combinations(colors[:-1], d))
    return got


def _kind_p_rows(h: PatternGraph, subsets: Iterable[tuple[int, ...]],
                 templates: Iterable[itemgetter]) -> Iterator[tuple[tuple, ...]]:
    """Kind-P rows: the given selector templates relabelled onto each of
    the given sorted (Delta+1)-subsets, subset after subset."""
    d = h.max_degree
    colors = h.color_ids
    for s in subsets:
        table = [(v, c) for v in s for c in colors]
        for pick in templates:
            # every monomial has exactly d pairs
            yield tuple(zip(*[iter(pick(table))] * d))


def _kind_q_rows(h: PatternGraph, class_size: int,
                 neighborhood: tuple[int, ...]) -> Iterator[tuple[tuple, ...]]:
    """Kind-Q rows, one monomial each: forbid neighborhood palettes that
    leave no room for the class clique in the target."""
    for k in range(1, min(h.max_degree, len(neighborhood)) + 1):
        seqs = color_sequences(h, class_size, k)
        if not seqs:
            continue
        for s in itertools.combinations(neighborhood, k):
            for x in seqs:
                yield (tuple(zip(s, x)),)


def iter_class_constraint_keys(
    h: PatternGraph, class_size: int, neighborhood: tuple[int, ...]
) -> Iterator[tuple[tuple, ...]]:
    """Yield each row of one twin class once, as its tuple of monomial keys.

    ``neighborhood`` must be sorted. This generator defines the family:
    ``class_row_count`` counts its rows and ``closed_form_basis`` is a
    basis of their span. Rows are relabelled per-pattern pieces (see
    ``_selector_templates`` and ``color_sequences``); monomial keys are
    sorted tuples of (vertex, color) pairs, listed in increasing order.
    Kind-P rows come first: no Delta+1 neighbours may be rainbow-colored.
    """
    d = h.max_degree
    if len(neighborhood) > d:
        yield from _kind_p_rows(h, itertools.combinations(neighborhood, d + 1),
                                _selector_templates(h))
    yield from _kind_q_rows(h, class_size, neighborhood)


def closed_form_basis(h: PatternGraph, class_size: int,
                      neighborhood: tuple[int, ...]) -> Iterator[tuple[tuple, ...]]:
    """A basis of the class's rows, built without elimination.

    Call a selector color set y (a Delta-subset of all colors but the
    last) live when its common neighborhood in the target has a clique of
    cap colors, cap being the class size capped at omega(H)+1. The basis
    is the selector rows of the live y's on the (Delta+1)-subsets of N
    that hold min N (the cone), in ``combinations`` order, followed by the
    kind-Q rows. It has |Q| + L * C(|N|-1, Delta) rows for L live y's.

    * Dead color sets. Every monomial of y's template colors a
      Delta-subset of N with exactly the colors of y, in some order. When
      y is dead, each such monomial is a kind-Q row, so y's rows lie in
      the span of the kind-Q rows.
    * The cone. Fix a live y and a (Delta+2)-set T of neighbours. Each
      monomial of y's rows on the (Delta+1)-subsets of T pairs Delta
      vertices of T with the colors of y in order, and exactly two of
      those subsets hold its Delta vertices: the rows sum to 0. Applied to
      S plus min N, this writes y's row on a subset S without min N as a
      sum of y's rows on subsets with min N.
    * Independence. A live y's monomials are no kind-Q rows, and the
      kind-Q rows are distinct single monomials. Distinct y's have
      disjoint monomials. Of y's cone rows, only the one on {min N} + R
      holds the monomial that colors R with y in order.
    * The former special cases. For a class of two or more vertices every
      y is dead: a color adjacent to all Delta colors of y has exactly y
      as its neighbours, so two such colors are not adjacent; the basis is
      the kind-Q rows. A K_q singleton has one y, the colors 0..q-2, and
      it is live: the basis is the first C(|N|-1, q-1) rows in generator
      order.
    """
    cap = min(max(class_size, 0), h.clique_number + 1)
    d = h.max_degree
    live = [h.omega_of(h.common_neighborhood(y)) >= cap
            for y in itertools.combinations(h.color_ids[:-1], d)]
    if len(neighborhood) > d and any(live):
        cone = ((neighborhood[0], *r) for r in itertools.combinations(neighborhood[1:], d))
        yield from _kind_p_rows(h, cone, tuple(itertools.compress(_selector_templates(h), live)))
    yield from _kind_q_rows(h, class_size, neighborhood)


def class_row_count(h: PatternGraph, class_size: int, nbhd_size: int) -> int:
    """The number of rows ``iter_class_constraint_keys`` yields for a class
    with ``nbhd_size`` neighbours, without building any; memoized on the
    pattern per (class size, ``nbhd_size``)."""
    key = (class_size, nbhd_size)
    total = h._row_count_memo.get(key)
    if total is None:
        d = h.max_degree
        total = math.comb(nbhd_size, d + 1) * math.comb(h.num_colors - 1, d)
        for k in range(1, min(d, nbhd_size) + 1):
            total += math.comb(nbhd_size, k) * len(color_sequences(h, class_size, k))
        h._row_count_memo[key] = total
    return total


def monomial_size(h: PatternGraph, class_size: int, nbhd_size: int) -> int:
    """The largest vertex-set size k of a monomial in a class's rows (0: no
    rows); every k-subset of the neighborhood is one. Kind-P monomials are
    the Delta-subsets once |N| > Delta, and a k-subset is a kind-Q
    monomial for every k <= |N| with a color sequence."""
    d = h.max_degree
    if nbhd_size > d:
        return d
    k = nbhd_size
    while k and not color_sequences(h, class_size, k):
        k -= 1
    return k

