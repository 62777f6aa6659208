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

Up to relabelling, the rows are the same for every neighborhood: a kind-P
row is one selector template over positions 0..Delta(H) per
(Delta(H)+1)-color subset, and the kind-Q color sequences of length k
depend only on the target and the class size capped at omega(H)+1. Both
pieces are memoized on the ``PatternGraph`` and built on first need, so
``iter_class_constraint_keys`` only relabels them.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .graphs import PatternGraph


def _selector_monomial_keys(rows: tuple[int, ...], cols: tuple[int, ...]) -> Iterator[tuple]:
    """The monomial keys of the distinct-color selector polynomial.

    One monomial per ordered selection of len(rows)-1 distinct rows; the
    k-th selected row is paired with the k-th column. Keys are sorted
    (vertex, color) tuples.
    """
    q = len(rows)
    for sel in itertools.permutations(range(q), q - 1):
        yield tuple(sorted((rows[i], cols[k]) for k, i in enumerate(sel)))


def build_coloring_polynomial(q: int) -> tuple[tuple, ...]:
    """Degree q-1 polynomial over variables y[i,k], i,k in 1..q, as its
    sorted monomial keys.

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


def _selector_templates(h: PatternGraph) -> tuple[tuple[tuple[int, ...], itemgetter], ...]:
    """Kind-P pieces: per (Delta+1)-color subset x, the selector keys of
    ``_selector_monomial_keys`` over positions 0..Delta instead of vertices.

    A template is stored as one ``itemgetter`` that picks, monomial after
    monomial, every (position, color) pair from a table holding the pair
    (s[i], c) at ``i * |V(H)| + index of c``. Relabelling a sorted subset s
    is then one table build and one call per x; the result is already
    sorted and duplicate-free, because i -> s[i] is increasing. Built on
    first use and memoized on the pattern (K9's template alone has 9!
    monomials).
    """
    got = h._selector_memo
    if got is None:
        q = h.max_degree + 1
        colors = h.color_ids
        index = {c: i for i, c in enumerate(colors)}
        positions = tuple(range(q))
        got = []
        for x in itertools.combinations(colors, q):
            keys = sorted(set(_selector_monomial_keys(positions, x)))
            got.append((x, itemgetter(*(i * len(colors) + index[c]
                                        for key in keys for i, c in key))))
        got = h._selector_memo = tuple(got)
    return got


def iter_class_constraint_keys(
    h: PatternGraph, class_size: int, neighborhood: tuple[int, ...]
) -> Iterator[tuple[str, tuple[int, ...], tuple[int, ...], tuple[tuple, ...]]]:
    """Yield (kind, s, x, monomial_keys) rows for one twin class.

    ``neighborhood`` must be sorted. This generator is the only source of
    rows: a row is its tuple of monomial keys, which the kernelizer interns
    into a bitmask. Rows are relabelled per-pattern pieces (see
    ``_selector_templates`` and ``color_sequences``); monomial keys are
    sorted tuples of (vertex, color) pairs, listed in increasing order.
    """
    d = h.max_degree
    # kind P: no Delta+1 neighbours may be rainbow-colored. No subsets exist
    # when the neighborhood is not larger than Delta(H).
    if len(neighborhood) >= d + 1:
        colors = h.color_ids
        templates = _selector_templates(h)
        for s in itertools.combinations(neighborhood, d + 1):
            table = [(v, c) for v in s for c in colors]
            for x, pick in templates:
                # every monomial has exactly d pairs
                yield ("P", s, x, tuple(zip(*[iter(pick(table))] * d)))
    # kind Q: forbid neighborhood palettes that leave no room for the class
    # clique in the target.
    for k in range(1, min(d, len(neighborhood)) + 1):
        seqs = color_sequences(h, class_size, k)
        if not seqs:
            continue
        for s in itertools.combinations(neighborhood, k):
            for x in seqs:
                yield ("Q", s, x, (tuple(zip(s, x)),))


def constraint_count_bound(n: int, h: PatternGraph) -> int:
    """Coarse cap on the number of generated rows for an n-vertex host."""
    d = h.max_degree
    return 2 * n * n ** (d + 1) * h.num_colors ** (d + 1)
