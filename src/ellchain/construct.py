"""Deterministic generators for the explicit limit series on elliptic chains.

Three families are produced, all with node conditions holding with
equality at every matched pair:

* ``canonical_limit_series(g)``: the unique rank-one series of dimension
  ``g`` and degree ``2g - 2`` (the limit of the canonical series), with
  twist ``a = 2g - 2``.
* ``construct_even(g, 2*k1)``: rank two, canonical determinant, twist
  ``a = g - 1``.  The first ``k1**2`` components carry pinned splits of
  two degree-``(g-1)`` line bundles driven by the layer decomposition
  ``i = layer**2 + 2c + eps``; the remaining components carry a free
  line bundle and its canonical conjugate.
* ``construct_odd(g, 2*k1 + 1)``: the even data extended by one section,
  rolled through ``k1`` transition components into the indecomposable
  bundle on component ``k1**2 + k1 + 1`` and out along the free tail.

Per component, exactly two table rows add up to ``g - 1`` (one on the
indecomposable component) and they coincide with the summand
coefficients; every other row adds up to ``g - 2``.  Node gluings store
the identity matching (ties between equal vanishing values are broken by
row index) and the forced direction pairs derived from the pinning
analysis in :mod:`ellchain.series`.  A node that touches a component that
pins nothing (``Component.pins_nothing``: a line bundle or a free split)
has no forced pairs, so it stores one shared unforced gluing.

The components that can pin form a prefix of the rank-two chain: the
even components ``i <= k1**2`` and, for odd ``k``, the transitions and the
indecomposable.  On that prefix every row is ``(u, g - c)`` and every
summand ``(p, g - c')`` with ``u``, ``p``, ``c`` and ``c'`` free of ``g``;
the indecomposable's degree is ``2g - 2`` and the twist ``g - 1``.  The
pinning rule compares ``u + v`` with ``p + q`` and ``2(mu + mv)`` with the
degree, and the node condition compares ``v + u'`` with the twist: ``g``
enters both sides of each with the same coefficient.  So the gluings of
the prefix do not depend on ``g``, which the shift identity below needs.

The rows and the tail follow the same rule, which makes the shift
identity.  On every component, pinning or free, each row is
``(u, g - c)`` and each summand ``(p, g - c')`` with ``u``, ``p``, ``c``
and ``c'`` free of ``g``; the indecomposable's marked pair is
``(u, g - c)`` too.  Let S add 1 to every row's ``v``, every summand's
``q`` and the marked ``v``, 2 to the indecomposable's degree, and 1 to the
genus and twist.  Then ``construct(G, k)`` cut to its first ``g``
components and ``g - 1`` nodes is S applied ``G - g`` times to
``construct(g, k)``.

From the base b of ``k`` on, the genus steps by a recurrence.  The base
is the threshold when the last component of the threshold series is a
free tail (``k`` = 2 and 4), and the threshold plus one otherwise.  Let T
add 1 to every row's ``u`` and every summand's ``p`` of a free tail: T of
tail component ``i`` at genus ``g`` is tail component ``i + 1`` at genus
``g + 1``.  For ``g >= b``, ``construct(g + 1, k)`` is U of
``construct(g, k)``: S on every component, T of the old last component
L appended, and one unforced node between them.  U keeps every check of
``validate_all``:

* the old components and nodes: every check compares quantities that S
  moves by the same amount, and S moves entries up, so none goes
  negative;
* the new component is T of a validated free tail, whose checks move
  with its index;
* the new node pairs row ``t`` of S(L) with row ``t`` of T(L), so it reads
  ``(v_t + 1) + (u_t + 1)`` against the twist ``a + 1``.  Every free-tail
  row lies on ``u + v = a - 1``, so the node condition holds with
  equality, as at every node of the construction;
* the degree sum gains 2 on each side: S adds 2 per old component, T(L)
  has degree ``2a + 2``, and ``r * (M - 1) * a`` grows by ``2M + 2a``.

``sweep`` prices every genus of ``k`` past its base by this (see
:mod:`ellchain.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, takewhile
from math import isqrt

from .chain import ChainCurve, Indecomposable, Split, SplitLineBundle
from .ledger import theorem_threshold
from .series import (
    Component,
    LimitSeries,
    NodeGluing,
    _column_table,
    _forced_pairs,
    free_split,
    q_side,
)


class ThresholdError(ValueError):
    """Requested genus is below the nonemptiness threshold for this k."""

    def __init__(self, g: int, k: int, required: int):
        super().__init__(
            f"(g={g}, k={k}) is below the theorem threshold: requires g >= {required}"
        )
        self.required = required


@dataclass(frozen=True)
class LayerDecomposition:
    """The unique writing ``i = layer**2 + 2*c + eps`` of a component index.

    Either ``0 <= c <= layer - 1`` with ``eps`` in ``{1, 2}``, or
    ``c == layer`` with ``eps == 1`` (the square indices).
    """

    i: int
    layer: int
    c: int
    eps: int


def decompose_index(i: int, k_1: int) -> LayerDecomposition:
    if not 1 <= i <= k_1 * k_1:
        raise IndexError(f"component index {i} out of range 1..{k_1 * k_1}")
    layer = isqrt(i - 1)
    rem = i - layer * layer
    if rem % 2 == 1:
        c, eps = (rem - 1) // 2, 1
    else:
        c, eps = (rem - 2) // 2, 2
    return LayerDecomposition(i, layer, c, eps)


# ---------------------------------------------------------------------------
# rank one


def _rank1_rows(i: int, g: int) -> list[tuple[int, int]]:
    rows = []
    for e in range(1, g + 1):
        u = i - 3 + e if e < i else i - 2 + e
        v = 2 * g - i - e if e <= i else 2 * g - i - e - 1
        rows.append((u, v))
    return rows


def canonical_limit_series(g: int) -> LimitSeries:
    """The limit of the canonical series: rank 1, dimension g, degree 2g-2."""
    if g < 2:
        raise ValueError(f"canonical limit series needs g >= 2, got {g}")
    components = tuple(
        Component(
            SplitLineBundle(2 * i - 2, 2 * g - 2 * i),
            _column_table(*zip(*_rank1_rows(i, g))),
        )
        for i in range(1, g + 1)
    )
    return _assemble(g, rank=1, k=g, d=2 * g - 2, a=2 * g - 2, components=components)


# ---------------------------------------------------------------------------
# rank two, even number of sections


def _even_pinned_component(
    i: int, g: int, k1: int, extra: tuple[tuple[int, int], ...] = ()
) -> Component:
    """Component ``i`` of the even series, with the rows ``extra`` appended."""
    dec = decompose_index(i, k1)
    layer, c, eps = dec.layer, dec.c, dec.eps
    first = SplitLineBundle(i - 1 + c - layer, g - i - c + layer)
    second = SplitLineBundle(i - 1 + layer - c, g - i - layer + c)
    rows: list[tuple[int, int]] = []
    for e in range(1, c + 1):
        rows += [(i + e - layer - 3, g - i - e + layer + 1)] * 2
    if c == layer:
        # square index: both distinguished rows coincide
        rows += [(i - 1, g - i)] * 2
    else:
        if eps == 1:
            rows.append((i + c - layer - 1, g - i - c + layer))
            rows.append((i + c - layer - 1, g - i - c + layer - 1))
        else:
            rows.append((i + c - layer - 2, g - i - c + layer))
            rows.append((i + c - layer - 1, g - i - c + layer))
        for e in range(c + 2, layer + 1):
            rows += [(i + e - layer - 2, g - i - e + layer)] * 2
        if eps == 1:
            rows.append((i - c + layer - 1, g - i + c - layer))
            rows.append((i + layer - c - 1, g - i - layer + c - 1))
        else:
            rows.append((i - c + layer - 2, g - i + c - layer))
            rows.append((i + layer - c - 1, g - i - layer + c))
    for e in range(layer + 2, k1 + 1):
        rows += [(i + e - 2, g - i - e)] * 2
    rows += extra
    return Component(Split(first, second), _column_table(*zip(*rows)))


def _twice(values: range) -> tuple[int, ...]:
    """Each of ``values`` twice in a row."""
    return tuple(chain.from_iterable(zip(values, values)))


def _free_tail_component(i: int, g: int, k1: int) -> Component:
    # rows (i + e - k1 - 2, g - i + k1 - e), each twice, for e in 1..k1
    us = _twice(range(i - k1 - 1, i - 1))
    vs = _twice(range(g - i + k1 - 1, g - i - 1, -1))
    return Component(free_split(i, g), _column_table(us, vs), moduli_freedom=1)


def construct_even(g: int, k: int, force: bool = False) -> LimitSeries:
    """Rank-two limit series with canonical determinant, ``k = 2*k1`` sections."""
    if k < 2 or k % 2:
        raise ValueError(f"construct_even needs even k >= 2, got {k}")
    k1 = k // 2
    required = theorem_threshold(k)
    if g < required and not force:
        raise ThresholdError(g, k, required)
    if g < k1 * k1:
        raise ValueError(
            f"g={g} cannot host the {k1 * k1} pinned components (needs g >= {k1 * k1})"
        )
    components = tuple(
        _even_pinned_component(i, g, k1) if i <= k1 * k1 else _free_tail_component(i, g, k1)
        for i in range(1, g + 1)
    )
    return _assemble(g, rank=2, k=k, d=2 * g - 2, a=g - 1, components=components)


# ---------------------------------------------------------------------------
# rank two, odd number of sections


def _transition_component(m: int, g: int, k1: int) -> Component:
    i = k1 * k1 + m
    first = SplitLineBundle(i + m - k1 - 2, g - i - m + k1 + 1)
    second = SplitLineBundle(k1 * k1 + k1, g - 1 - k1 * k1 - k1)
    rows: list[tuple[int, int]] = []
    for e in range(1, k1 + 1):
        u_odd = i + e - k1 - 3 if e < m else i + e - k1 - 2
        v_odd = g - i - e + k1 + 1 if e <= m else g - i - e + k1
        rows.append((u_odd, v_odd))
        rows.append((i + e - k1 - 2, g - i - e + k1))
    rows.append(second.pair)
    return Component(Split(first, second), _column_table(*zip(*rows)))


def _indecomposable_component(g: int, k1: int) -> Component:
    s = k1 * k1
    rows: list[tuple[int, int]] = []
    for e in range(1, k1 + 1):
        rows.append((s + e - 2, g - s - e))
        rows.append((s + e - 1, g - 1 - s - e))
    rows.append((s + k1, g - 1 - s - k1))
    bundle = Indecomposable(2 * g - 2, s + k1, g - 1 - s - k1)
    return Component(bundle, _column_table(*zip(*rows)))


def _odd_tail_component(i: int, g: int, k1: int) -> Component:
    s = k1 * k1
    t = i - (s + k1 + 1)  # offset past the indecomposable component
    # rows (b + e - 2, c - e) and (b + e - 1, c - e - 1) for e in 1..k1,
    # then (b + k1 - 1, c - k1 - 1), with b = s + t and c = g - s - t
    b, c = s + t, g - s - t
    us = (b - 1, *_twice(range(b, b + k1)))
    vs = (c - 1, *_twice(range(c - 2, c - k1 - 2, -1)))
    return Component(free_split(i, g), _column_table(us, vs), moduli_freedom=1)


def construct_odd(g: int, k: int, force: bool = False) -> LimitSeries:
    """Rank-two limit series with canonical determinant, ``k = 2*k1 + 1`` sections.

    For ``k1 = 1, g = 3`` the combinatorial series exists and validates,
    but every gluing choice leaves the glued bundle strictly semistable;
    a stable representative is certified externally (see
    :func:`ellchain.stability.external_stable_case`).
    """
    if k < 3 or k % 2 == 0:
        raise ValueError(f"construct_odd needs odd k >= 3, got {k}")
    k1 = (k - 1) // 2
    required = theorem_threshold(k)
    if g < required and not force:
        raise ThresholdError(g, k, required)
    if g < k1 * k1 + k1 + 1:
        raise ValueError(
            f"g={g} cannot host the indecomposable component at index {k1 * k1 + k1 + 1}"
        )
    components = [
        _even_pinned_component(i, g, k1, ((i + k1 - 1, g - i - k1 - 1),))
        for i in range(1, k1 * k1 + 1)
    ]
    for m in range(1, k1 + 1):
        components.append(_transition_component(m, g, k1))
    components.append(_indecomposable_component(g, k1))
    for i in range(k1 * k1 + k1 + 2, g + 1):
        components.append(_odd_tail_component(i, g, k1))
    return _assemble(
        g, rank=2, k=k, d=2 * g - 2, a=g - 1, components=tuple(components)
    )


# ---------------------------------------------------------------------------


def construct(g: int, k: int, force: bool = False) -> LimitSeries:
    """Parity-dispatching generator for the rank-two series."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return construct_even(g, k, force) if k % 2 == 0 else construct_odd(g, k, force)


def _assemble(g, rank, k, d, a, components) -> LimitSeries:
    """The series of ``components``, glued by the identity at every node.

    A rank-two series derives the forced pairs of each node between two
    pinning components, a prefix of the chain.  Every other node, and
    every node of a rank-one series, touches a component that pins
    nothing and shares one unforced gluing, which is what the derivation
    returns there.
    """
    identity = tuple(range(1, k + 1))
    pinned = ()
    if rank == 2:
        prefix = tuple(takewhile(lambda c: not c.pins_nothing, components))
        pinned = tuple(
            NodeGluing(identity, _forced_pairs(q_side(left), right, identity, a))
            for left, right in zip(prefix, prefix[1:])
        )
    nodes = pinned + (NodeGluing(identity),) * (len(components) - 1 - len(pinned))
    return LimitSeries(
        chain=ChainCurve(g),
        rank=rank,
        sections=k,
        degree=d,
        twist=a,
        components=components,
        nodes=nodes,
    )
