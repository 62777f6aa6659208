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
pieces are memoized on the ``PatternGraph`` and built on first need, so
``iter_class_constraint_keys`` only relabels them. Only this module knows
the families' shape: ``class_row_count``, ``monomial_size`` and
``closed_form_basis``.
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


def _kind_p_rows(h: PatternGraph, neighborhood: tuple[int, ...]) -> Iterator[tuple[tuple, ...]]:
    """Kind-P rows: no Delta+1 neighbours may be rainbow-colored."""
    d = h.max_degree
    if len(neighborhood) > d:
        colors = h.color_ids
        templates = _selector_templates(h)
        for s in itertools.combinations(neighborhood, d + 1):
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

    ``neighborhood`` must be sorted. This generator is the only source of
    rows, which the kernelizer interns into bitmasks. Rows are relabelled
    per-pattern pieces (see ``_selector_templates`` and
    ``color_sequences``); monomial keys are sorted tuples of (vertex,
    color) pairs, listed in increasing order. Kind-P rows come first.
    """
    yield from _kind_p_rows(h, neighborhood)
    yield from _kind_q_rows(h, class_size, neighborhood)


def closed_form_basis(h: PatternGraph, class_size: int,
                      neighborhood: tuple[int, ...]) -> Iterator[tuple[tuple, ...]] | None:
    """A basis of the class's rows in closed form, in generator order, or
    None when the family has no closed form. Two shapes have one; the
    decision depends only on the target and the capped class size.

    * K_q singleton: there are no kind-Q rows, and one kind-P row per
      q-subset of N. Over any (q+1)-set the rows of its q-subsets sum to
      0: each monomial pairs q-1 vertices with the colors 0..q-2, and
      exactly two of the q-subsets hold those vertices. Applied to S plus
      the smallest neighbour v, this writes the row of a q-subset S
      without v as a sum of rows of q-subsets with v. Those C(|N|-1, q-1)
      rows, the cone, come first in generator order, and each holds a
      monomial no other cone row has (its q-1 largest vertices with the
      colors in order): they are the rows greedy elimination keeps.
    * Unit-row family: every Delta-subset y of the selector colors leaves
      a common neighborhood with a clique number below the capped class
      size. Every kind-P monomial, a Delta-subset of N colored by an
      ordering of some y, is then a kind-Q row, so the kind-Q rows, all
      distinct single monomials, are a basis.
    """
    cap = min(max(class_size, 0), h.clique_number + 1)
    d = h.max_degree
    if cap == 1 and h.clique_number == h.num_colors:
        return itertools.islice(_kind_p_rows(h, neighborhood),
                                math.comb(max(len(neighborhood) - 1, 0), d))
    if all(h.omega_of(h.common_neighborhood(y)) < cap
           for y in itertools.combinations(h.color_ids[:-1], d)):
        return _kind_q_rows(h, class_size, neighborhood)
    return None


def class_row_count(h: PatternGraph, class_size: int, nbhd_size: int) -> int:
    """The number of rows ``iter_class_constraint_keys`` yields for a class
    with ``nbhd_size`` neighbours, without building any."""
    d = h.max_degree
    total = math.comb(nbhd_size, d + 1) * math.comb(h.num_colors - 1, d)
    for k in range(1, min(d, nbhd_size) + 1):
        total += math.comb(nbhd_size, k) * len(color_sequences(h, class_size, k))
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

