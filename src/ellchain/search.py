"""Exhaustive oracle for limit-series vanishing configurations.

The enumeration is an independent check on the explicit generators: it
covers all vanishing tables, bundle splits and node matchings of the
balanced ansatz (every rank-two bundle a sum of two degree-``(g-1)`` line
bundles with canonical determinant, twist ``a = g - 1``; rank one with
degree ``2g - 2`` bundles and twist ``2g - 2``) and reports every
configuration satisfying all limit-series conditions.  Rank one serves to
certify that the limit canonical series (``k = g``) is unique; below
``k = g`` its tables admit non-canonical line bundles, so ``k < g`` is
refused, and so is a rank-one prefix, whose leaves are never validated.
``enumerate_series`` checks every input (genus cap, solution limit,
rank-one ``k`` and prefix) before any table is built.

Within the ansatz, a table row on a summand of degree ``ds`` has
``u + v = ds - 1`` (the generic branch), or ``u + v = ds`` for the
distinguished section of a pinned summand; so a table is a choice of
``u``-values plus a choice of which rows are distinguished, and the
distinguished rows determine the bundle outright (two of them must sum to
the canonical coefficients; a single one names a summand whose conjugate
is forced; none leaves a free line-bundle choice).  Node matchings can be
fixed to the identity on canonically sorted tables: if any bijection
satisfies the node condition, the pairing of decreasing ``v`` against
increasing ``u`` does.

Pruning is twofold and sound: a row whose ``u`` cannot reach
``a - v_prev`` dies immediately, and a potential function cuts branches
whose remaining components cannot absorb the vanishing still required
(each component turns a ``v``-sum ``f`` into at most ``f + rank - k``,
as ``ds = a``, while the final component still needs a valid
nonnegative ``v``-multiset).

Every check is local between neighbouring components, and a step reads
only ``q_side`` of the previous component: each row's ``v`` (lower
bounds, post-hoc check) and the direction it pins at Q (forced pairs).
So what can follow a partial configuration depends only on the state
``(index, q_side(previous))``.  The search is a memoized transfer step
over these states: each state is expanded once, and a state reached
along another path adds its cached totals.  The root is the state of
the first component, reached from a virtual left side whose ``v = a`` on
every row bounds nothing and which pins nothing, so it is expanded as
any other state.  The reported counters
(tables expanded, prunes) are still the sums over the full depth-first
search tree, as if every path were expanded anew; that tree never
counted the capacity prunes of the root's walk.  A state's table walk
reads only its index and the lower bounds the previous ``v`` column
sets, so each (index, bounds) is walked once per search, however many
states share it; it emits each table at its last row, with no call
below it.  A state whose left side pins no row at Q forces no pair on
any edge, so only states whose left side pins derive forced pairs.
Many walks offer the same table, so options are
interned per search by ``(index, rows)``: one ``Component`` per distinct
table, whose ``q_side``, component block and component unit are derived
once, however many states offer it.  A state at the last component
takes every option that passes as a leaf, with no state to look up.
Solutions are read off by a walk over the memoized states, which keys
the leaves below a last-component state in one pass, and is skipped
when only the count is asked for.  The components and forced pairs
found on the way down are already in canonical form, so a leaf's key is
its text as it stands: the blocks of the options and the node lines on
its path, under the series head, each line rendered once per (node,
forced pairs), with the renderers ``serialize_series`` is assembled
from.  In a full-chain search each kept edge is also checked by the
validator's units, ``node_failures`` of its node on the edge and
``component_failures`` of its component once per option, and the first
leaf found by ``series_failures``, whose verdict is every leaf's (see
``_Transfer``): a failing unit is an oracle defect and raises.  A prefix
search builds no series and runs no unit.
The search runs in one process with one memo, one walk table and one
intern table, all dropped when it returns, and its reports are
reproducible bit for bit; they claim combinatorial solutions only.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate

from .chain import ChainCurve, Split, SplitLineBundle, canonical_restriction
from .series import (
    DIR_FIRST,
    DIR_SECOND,
    Component,
    Failure,
    LimitSeries,
    NodeGluing,
    VanishingTable,
    QSide,
    _column_table,
    _forced_pairs,
    _int_columns,
    component_block,
    component_failures,
    forced_pairs_failure,
    free_split,
    header_failures,
    matching_failure,
    node_count_failure,
    node_failures,
    node_line,
    q_side,
    serialize_series,
    series_failures,
    series_head,
)

DEFAULT_CAP_RANK2 = 8
DEFAULT_CAP_RANK1 = 10


class SearchCapError(ValueError):
    pass


@dataclass(frozen=True)
class SearchSpace:
    """The balanced-split ansatz at one (g, rank, k), optionally a prefix."""

    g: int
    rank: int
    k: int
    prefix_length: int | None = None

    def __post_init__(self):
        if self.rank not in (1, 2):
            raise ValueError(f"rank must be 1 or 2, got {self.rank}")
        if self.g < 2 or self.k < 1:
            raise ValueError(f"need g >= 2 and k >= 1, got g={self.g}, k={self.k}")
        if self.prefix_length is not None and not 1 <= self.prefix_length <= self.g:
            raise ValueError(f"prefix length {self.prefix_length} out of range")

    @property
    def d(self) -> int:
        return 2 * self.g - 2

    @property
    def a(self) -> int:
        return self.g - 1 if self.rank == 2 else 2 * self.g - 2

    @property
    def length(self) -> int:
        return self.prefix_length if self.prefix_length is not None else self.g


@dataclass(frozen=True)
class SearchReport:
    space: SearchSpace
    count: int
    solutions: tuple[str, ...]
    truncated: bool
    nodes_expanded: int
    pruned: tuple[tuple[str, int], ...]
    wall_time: float

    def summary_lines(self) -> list[str]:
        mode = "prefix" if self.space.prefix_length is not None else "full chain"
        lines = [
            f"combinatorial solutions: {self.count}"
            + (" (solution list truncated)" if self.truncated else ""),
            f"search mode: {mode}, components {self.space.length}, "
            f"rank {self.space.rank}, k {self.space.k}, g {self.space.g}",
            f"tables expanded: {self.nodes_expanded}",
        ]
        lines += [f"pruned ({name}): {n}" for name, n in self.pruned]
        lines.append(f"wall time: {self.wall_time:.3f}s")
        return lines


# ---------------------------------------------------------------------------
# canonical forms


def canonical_form(s: LimitSeries) -> LimitSeries:
    """Normalize summand order, row order, matchings and representatives.

    Summands are sorted lexicographically by (p, q) and rows by (u, -v);
    forced-pair tokens follow the summand order, and each matching becomes
    the least one that pairs the same multiset of (left row, right row)
    values, so every representation of a series has one form.  Free
    components get the standard representative coefficients.  Idempotent.
    Constructed series and search leaves are canonical already.  Raises
    ``ValueError`` naming the first header field that is not an ``int``
    (``header_failures``), both counts when there is not one node between
    each two components, the component whose table does not have
    ``sections`` rows of integers, or the node whose matching or forced
    pairs ``matching_failure`` or ``forced_pairs_failure`` refuses, as
    ``validate_all`` does.
    """
    if bad := header_failures(s):
        raise ValueError(bad[0])
    if why := node_count_failure(s):
        raise ValueError(why)
    k = s.sections
    identity = tuple(range(1, k + 1))
    flip = {DIR_FIRST: DIR_SECOND, DIR_SECOND: DIR_FIRST}
    comps: list[Component] = []
    names: list[dict[str, str]] = []  # each component's token renaming
    given: list[tuple] = []  # each component's rows as given, then sorted
    ordered: list[list] = []
    for i, c in enumerate(s.components, start=1):
        bundle = c.bundle
        swap = isinstance(bundle, Split) and bundle.second.pair < bundle.first.pair
        if swap:
            bundle = bundle.swapped()
        if isinstance(bundle, Split) and c.is_generic:
            bundle = free_split(i, s.genus)
        rows = c.table.rows
        if len(rows) != k:
            raise ValueError(f"component {i}: {len(rows)} rows, expected {k}")
        if not all(type(u) is int and type(v) is int for u, v in rows):
            raise ValueError(f"component {i}: vanishing orders must be integers")
        given.append(rows)
        rows = sorted(rows, key=lambda row: (row[0], -row[1]))
        ordered.append(rows)
        comps.append(Component(bundle, VanishingTable(rows), c.moduli_freedom))
        names.append(flip if swap else {})

    nodes: list[NodeGluing] = []
    for n, node in enumerate(s.nodes):
        matching = node.matching
        why = matching_failure(matching, identity) or forced_pairs_failure(node.forced_pairs)
        if why:
            raise ValueError(f"node {n + 1}: {why}")
        was = given[n : n + 2]
        left, right = ordered[n : n + 2]
        # the greedy choice is least, as any pair still counted can be placed
        pairs = Counter((was[0][t], was[1][t2 - 1]) for t, t2 in enumerate(matching))
        free, matching = list(range(k)), []
        for row in left:
            j = next(j for j in free if pairs[row, right[j]])
            pairs[row, right[j]] -= 1
            free.remove(j)
            matching.append(j + 1)
        forced = sorted((names[n].get(a, a), names[n + 1].get(b, b)) for a, b in node.forced_pairs)
        nodes.append(NodeGluing(tuple(matching), tuple(forced)))
    return replace(s, components=tuple(comps), nodes=tuple(nodes))


def _prefix_line(prefix_length: int | None) -> str:
    """The ``prefix N`` line that heads a prefix key; a full-chain key has none."""
    return "" if prefix_length is None else f"prefix {prefix_length}\n"


def _key(s: LimitSeries, prefix_length: int | None) -> str:
    """The one key format: the serialized series, under a ``prefix N`` line."""
    return _prefix_line(prefix_length) + serialize_series(s)


def canonical_key(s: LimitSeries) -> str:
    """Byte-stable membership key: the serialized canonical form."""
    return _key(canonical_form(s), None)


def prefix_key(s: LimitSeries, length: int) -> str:
    """Membership key for the first ``length`` components of a series."""
    c = canonical_form(s)
    chain = ChainCurve(c.genus, length)
    head = replace(c, chain=chain, components=c.components[:length], nodes=c.nodes[: length - 1])
    return _key(head, length)


# ---------------------------------------------------------------------------
# enumeration

def _min_vsum_needed(space: SearchSpace, i: int) -> int:
    """Least sum(v) component ``i`` may carry and still finish the chain.

    Each step changes sum(v) by at most ``rank - k`` and the last
    component still needs a valid nonnegative v-multiset.
    """
    terminal = sum(j // space.rank for j in range(space.k))
    return terminal - (space.length - i) * (space.rank - space.k)


class _Option:
    """One distinct table option of a search: component ``idx``, and what
    the search derives from it, each at most once.

    ``q`` (its ``q_side``) and ``block`` (its ``component_block``) are
    derived on first use; ``failures`` and ``columns`` (its
    ``component_failures`` items and ``_int_columns``) are set by the
    first edge guard that reads them.
    """

    __slots__ = ("idx", "comp", "_q", "_block", "failures", "columns")

    def __init__(self, idx: int, comp: Component):
        self.idx, self.comp = idx, comp
        self._q = self._block = self.failures = self.columns = None

    @property
    def q(self) -> QSide:
        if self._q is None:
            self._q = q_side(self.comp)
        return self._q

    @property
    def block(self) -> str:
        if self._block is None:
            self._block = component_block(self.idx, self.comp)
        return self._block


def _live_or_past(us: range, cut: int, live_lo: int, live_hi: int) -> list[int]:
    """The u of ``us`` in ``live_lo..live_hi`` or past ``cut``, ascending.

    Not a comprehension inside ``_table_options``' walk: there it would
    make these names cells of the walk, which every call of it pays for
    under CPython 3.11.
    """
    return [u for u in us if u > cut or live_lo <= u <= live_hi]


def _table_options(
    space: SearchSpace,
    i: int,
    lbs: tuple[int, ...],
    min_vsum: int,
    interned: dict[tuple, _Option],
) -> tuple[list[_Option], int]:
    """All admissible components at position ``i``, rows sorted, and the
    number of capacity prunes made on the way.

    Each option is looked up in ``interned`` by ``(i, *rows)`` and built,
    with its bundle, table and ``Component``, only on a miss; so one search
    passing one dict builds one ``_Option`` per distinct table.

    ``min_vsum`` prunes row prefixes that cannot reach the required total
    vanishing at Q (subsequent rows never exceed the current ``v``).  A
    distinguished rank-2 row is walked only at a ``u`` whose rows ``emit``
    can keep (a first slot in the box ``ds - canon[1] <= u <= canon[0]``, a
    second at ``canon[0] - u1``), or whose subtree can still count a prune:
    the deficit never rises along a path, so a row that leaves none can
    lead to no prune, and skipping it keeps the count exact.  The live range
    is never empty (``canon`` sums to ``2 * ds``), so when no ``u`` of the
    row's range is past the cut and the live range misses it, no ``u`` is
    kept: the branch is left before any candidate list is built, and as its
    capacity prune is counted before any ``u`` is walked, that changes no
    option, order or count.  Each node of the walk reads once the one ``u``
    and the one ``v`` a row there may not take, as a third equal value (a
    second ``v`` on rank 1), and the last row emits each table it completes
    without a call below it.
    """
    k, rank = space.k, space.rank
    ds = space.a  # every summand's degree equals the twist in the ansatz
    canon = canonical_restriction(i, space.g)
    out: list[_Option] = []
    rows: list[tuple[int, int]] = []
    if k * (ds - 1) + rank - sum(lbs) < min_vsum:
        return out, 1
    pruned = 0
    # rows after the current one carry at most v - t//rank at position t
    decay = list(accumulate([t // rank for t in range(k)], initial=0))
    step = 1 if rank == 1 else 0  # rank-1 rows have distinct u
    box = (ds - canon[1], canon[0])  # a lone rank-2 slot's u with cp, cq >= 0

    def emit():
        key = (i, *rows)
        found = interned.get(key)
        if found is not None:
            out.append(found)
            return
        slots = [(u, v) for u, v in rows if u + v == ds]
        if len(slots) == 2:
            (p1, q1), (p2, q2) = slots
            if (p1 + p2, q1 + q2) != canon:
                return
            bundle = Split(SplitLineBundle(p1, q1), SplitLineBundle(p2, q2))
            moduli = 0
        elif len(slots) == 1:
            (p, q) = slots[0]
            if rank == 1:
                bundle = SplitLineBundle(p, q)
            else:
                cp, cq = canon[0] - p, canon[1] - q
                if cp < 0 or cq < 0:
                    return
                pair = sorted([(p, q), (cp, cq)])
                bundle = Split(SplitLineBundle(*pair[0]), SplitLineBundle(*pair[1]))
            moduli = 0
        else:
            if rank == 1:
                bundle = SplitLineBundle(*canon)
            else:
                bundle = free_split(i, space.g)
            moduli = 1
        table = _column_table(*zip(*rows))
        found = interned[key] = _Option(i, Component(bundle, table, moduli))
        out.append(found)

    def rec(j: int, slots_used: int, vsum: int):
        nonlocal pruned
        remaining = k - j
        last = remaining == 1  # each row here completes a table: emit it
        base_lo = lbs[j]
        # sorted rows keep equal values adjacent, so multiplicity checks
        # only look at the last two rows: read once here, they leave one u
        # and one v a row may not take (-1 for none, as no u or v is negative)
        prev_v, tie_u, tie_v = ds, -1, -1  # a first row's v is at most ds
        if j:
            prev_u, prev_v = rows[-1]
            if prev_u + step > base_lo:
                base_lo = prev_u + step
            qu, qv = rows[-2] if j >= 2 else (-1, -1)
            tie_u = prev_u if qu == prev_u else -1
            tie_v = prev_v if rank == 1 or qv == prev_v else -1
        deficit = min_vsum - vsum + decay[remaining]
        vmin = -(-deficit // remaining) if deficit > 0 else 0
        for extra in (0, 1):  # 0: generic branch, 1: distinguished row
            if extra and slots_used >= rank:
                continue
            s = ds - 1 + extra
            lo = base_lo
            if s - prev_v > lo:
                lo = s - prev_v  # keeps v nonincreasing
            hi = s - vmin  # capacity: later rows can never exceed this v
            if hi < lo:
                if vmin > 0:
                    pruned += 1
                continue
            us = range(lo, hi + 1)
            # keep the live u and the u > cut, whose child keeps a positive
            # deficit, in ascending order; with cut < lo that is every u
            if extra and rank == 2 and (cut := s - min_vsum + vsum - decay[remaining - 1]) >= lo:
                live_lo, live_hi = box
                if slots_used:
                    for p, q in rows:
                        if p + q == ds:
                            break
                    live_lo = live_hi = canon[0] - p
                if hi <= cut and (live_hi < lo or live_lo > hi):
                    continue  # the filter would keep no u
                us = _live_or_past(us, cut, live_lo, live_hi)
            for u in us:
                v = s - u
                if u == tie_u or v == tie_v:
                    continue
                rows.append((u, v))
                if last:
                    emit()
                else:
                    rec(j + 1, slots_used + extra, vsum + v)
                rows.pop()

    rec(0, 0, 0)
    rec = None  # rec reaches itself through its closure: free it, and emit, now
    return out, pruned


@dataclass(frozen=True)
class _State:
    """Totals of the search subtree below one transfer state.

    The counters are the sums a depth-first walk of that subtree would
    make.  ``edges`` keeps only the children that lead to a solution, each
    as (option, gluing at the node into it, the node's line, child state).
    The option carries its component's block and the line is shared by
    every edge with the same node index and forced pairs; both are
    rendered once per search, by the renderers ``serialize_series`` is
    assembled from, so a leaf's key is a concatenation of the texts on its
    path.  A state at the last component has ``_LEAF`` as every child, and
    no other state has any; the root's edges carry no node and an empty
    line.  In a full-chain search the component and the node of each kept
    edge have passed their units, however many leaves lie below; the
    component's unit runs once per option.
    """

    count: int
    expanded: int
    pruned_capacity: int
    direction_conflict: int
    edges: tuple[tuple[_Option, NodeGluing | None, str, "_State"], ...] = ()


_LEAF = _State(count=1, expanded=0, pruned_capacity=0, direction_conflict=0)


class _Transfer:
    """Memoized transfer step over one search space.

    ``memo`` maps (component index, ``q_side`` of the previous component)
    to the totals of the subtree below it, so each state is expanded once.
    The key is exact by construction: ``_expand`` is handed the key and
    nothing else.  The root, the first component's state, is expanded from
    a virtual left side, and the prunes of its walk are not counted (see
    ``run``).  ``walks`` holds the table options and capacity prunes of
    each (index, lower bounds): the required v-sum depends on the index
    alone, so ``min_vsums`` holds it once per index, and slow mode is fixed
    per search, so states whose previous components share a v column share
    one walk.  ``options`` interns the table options by ``(index, *rows)``
    and ``gluings`` each kept node, with its line, by ``(index, forced
    pairs)``; all four live and die with the search.  ``head`` is the text every leaf key starts with: the
    series head, under the ``prefix N`` line in a prefix search.  With
    ``collect`` false no key is built.

    A full-chain search runs ``series_failures`` once, on the first leaf
    below the root, and its verdict is every leaf's: that unit reads only the
    header, which every leaf shares, the counts, which are ``length``
    components and ``length - 1`` nodes on every leaf, and the degree sum,
    in which every component that passed ``component_failures`` counts
    ``2g - 2``, as its canonical-determinant check fixes its degree.
    """

    def __init__(self, space: SearchSpace, slow: bool, collect: bool = True):
        self.space = space
        self.slow = slow
        self.collect = collect
        self.identity = tuple(range(1, space.k + 1))
        self.chain = ChainCurve(space.g, space.length)
        self.params = (space.rank, space.k, space.d, space.a)
        self.head = _prefix_line(space.prefix_length) + series_head(
            LimitSeries(self.chain, *self.params, (), ())
        )
        # each index's required v-sum (none in slow mode); entry 0 is unused
        self.min_vsums = [
            0 if slow else _min_vsum_needed(space, i) for i in range(space.length + 1)
        ]
        self.memo: dict[tuple[int, QSide], _State] = {}
        self.walks: dict[tuple[int, tuple[int, ...]], tuple[list[_Option], int]] = {}
        self.options: dict[tuple, _Option] = {}
        self.gluings: dict[tuple[int, tuple], tuple[NodeGluing | None, str]] = {}

    def state(self, idx: int, prev: _Option) -> _State:
        key = (idx, prev.q)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = self._expand(*key)
        return found

    def _expand(self, idx: int, left_q: QSide) -> _State:
        """The totals below state ``(idx, left_q)``: every option of its
        walk, with its forced pairs (derived only when ``left_q`` pins a
        row at Q) and the state below it."""
        space, slow = self.space, self.slow
        a = space.a
        lbs = (0,) * space.k if slow else tuple(max(0, a - v) for v, _ in left_q)
        walk = self.walks.get((idx, lbs))
        if walk is None:
            walk = self.walks[idx, lbs] = _table_options(
                space, idx, lbs, self.min_vsums[idx], self.options
            )
        options, pruned = walk
        last = idx == space.length  # every child is a leaf: no state to look up
        count = expanded = conflicts = 0
        edges = []
        guard = space.prefix_length is None
        # a row forces a pair only when it pins a direction at Q: with none
        # pinned, every option's forced pairs are () and none can conflict
        pins = any(d is not None for _, d in left_q)
        forced = ()
        for opt in options:
            comp = opt.comp
            if slow and any(v + u < a for (v, _), u in zip(left_q, comp.table.us)):
                continue
            # a configuration whose pinned directions cannot be matched by
            # any single fiber isomorphism is not realizable; reject it
            if pins:
                try:
                    forced = _forced_pairs(left_q, comp, self.identity, a)
                except ValueError:
                    conflicts += 1
                    continue
            child = _LEAF if last else self.state(idx + 1, opt)
            count += child.count
            expanded += 1 + child.expanded
            pruned += child.pruned_capacity
            conflicts += child.direction_conflict
            # an option that leads nowhere is never guarded or rendered: on
            # rank 1 it may have a non-canonical bundle
            if child.count:
                gluing = self.gluings.get((idx, forced))
                if gluing is None:
                    node = NodeGluing(self.identity, forced)
                    gluing = self.gluings[idx, forced] = (node, node_line(idx - 1, node))
                if guard:
                    self._guard(self.edge_failures(opt, left_q, gluing[0]))
                edges.append((opt, *gluing, child))
        return _State(count, expanded, pruned, conflicts, tuple(edges))

    def run(self) -> tuple[_State, list[str]]:
        """The root, the state of the first component, and the solution keys
        below it; no keys when the search does not collect them."""
        space = self.space
        lbs = (0,) * space.k
        # the depth-first counters this search reproduces never counted
        # capacity prunes among first components, so the root's walk has none
        self.walks[1, lbs] = (_table_options(space, 1, lbs, self.min_vsums[1], self.options)[0], 0)
        # no node leads into the first component: its edges get no node line
        self.gluings[1, ()] = (None, "")
        # a virtual left side: v = a bounds no row and pins no direction
        root = self._expand(1, ((space.a, None),) * space.k)
        solutions: list[str] = []
        if not root.count:
            return root, solutions
        if space.prefix_length is None:
            self._guard(series_failures(self._first_leaf(root)))
        if self.collect:
            self._collect(root, "", "", solutions)
        return root, solutions

    def _first_leaf(self, root: _State) -> LimitSeries:
        """The series of the first leaf below the root."""
        comps, nodes = [], []
        state = root
        while state is not _LEAF:
            opt, node, _, state = state.edges[0]
            comps.append(opt.comp)
            nodes.append(node)
        # the root's edge carries no node
        return LimitSeries(self.chain, *self.params, tuple(comps), tuple(nodes[1:]))

    def edge_failures(self, opt: _Option, left_q: QSide, node: NodeGluing | None) -> list[Failure]:
        """The unit items of option ``opt``'s component and of ``node`` into
        it from a left side with ``q_side`` ``left_q``; no node leads into
        the first component.

        The component's unit runs once per option; its items are kept on it.
        """
        rank, k, _, twist = self.params
        if opt.failures is None:
            opt.columns = _int_columns(opt.comp.table)
            opt.failures = tuple(
                component_failures(opt.idx, opt.comp, opt.columns, rank, k, twist, self.space.g)
            )
        if node is None:
            return list(opt.failures)
        # the left side's v column is all of it a node unit reads
        sides = [(None, tuple(v for v, _ in left_q)), opt.columns]
        return [*opt.failures, *node_failures(opt.idx - 1, node, sides, k, twist, self.identity)]

    def _guard(self, failures: list[Failure]) -> None:
        """Raise naming each failing check: the search made a configuration it must not."""
        if failures:
            raise RuntimeError(
                "oracle defect: enumerated configuration fails validation: "
                + "; ".join(dict.fromkeys(check for check, _ in failures))
            )

    def _collect(self, state: _State, comps_text: str, nodes_text: str, out: list[str]) -> None:
        """Append to ``out`` the key of every leaf below ``state``, which has some.

        ``comps_text`` and ``nodes_text`` are the component blocks and node
        lines on the path so far.  A state at the last component keys all
        its leaves in one pass.
        """
        edges = state.edges
        if edges[0][3] is _LEAF:
            head = self.head + comps_text
            out += [head + opt.block + nodes_text + line for opt, _, line, _ in edges]
        else:
            for opt, _, line, child in edges:
                self._collect(child, comps_text + opt.block, nodes_text + line, out)


def enumerate_series(
    space: SearchSpace,
    limit: int | None = None,
    disable_pruning: bool = False,
    cap: int | None = None,
    count_only: bool = False,
) -> SearchReport:
    """Exhaustive enumeration of the ansatz by the memoized transfer step.

    One memo in one process serves the whole search; the count and the
    counters are read off its root state.
    ``nodes_expanded`` and ``pruned`` count what a depth-first search of
    the whole tree would, memo hits included.

    ``limit`` truncates the stored solution list only; the count is always
    exact.  ``count_only`` builds no solution key and reports an empty
    list, with the count, counters and truncation note of a listing run.
    ``disable_pruning`` replaces the lower-bound and capacity prunes by
    post-hoc rejection (slow mode, for prune-soundness checks).
    Raises ``SearchCapError`` above the genus cap, and ``ValueError`` for a
    negative ``limit``, or a rank-1 space with ``k < g`` or a prefix.
    """
    effective_cap = cap if cap is not None else (
        DEFAULT_CAP_RANK2 if space.rank == 2 else DEFAULT_CAP_RANK1
    )
    if space.g > effective_cap:
        raise SearchCapError(
            f"g={space.g} exceeds the search cap {effective_cap}; pass cap= "
            f"(--cap on the command line) to raise it explicitly"
        )
    if limit is not None and limit < 0:
        raise ValueError(f"solution limit must be nonnegative, got {limit}")
    if space.rank == 1 and space.k < space.g:
        raise ValueError(
            f"rank-1 search needs k >= g, got g={space.g}, k={space.k} (below k = g "
            f"the tables admit non-canonical line bundles, which the ansatz excludes)"
        )
    if space.rank == 1 and space.prefix_length is not None:
        raise ValueError("rank-1 search takes no prefix: prefix leaves are never validated")
    start = time.perf_counter()
    transfer = _Transfer(space, disable_pruning, not count_only)
    root, solutions = transfer.run()
    solutions.sort()
    truncated = limit is not None and root.count > limit
    if truncated:
        solutions = solutions[:limit]
    return SearchReport(
        space=space,
        count=root.count,
        solutions=tuple(solutions),
        truncated=truncated,
        nodes_expanded=root.expanded,
        pruned=(
            ("capacity", root.pruned_capacity),
            ("direction-conflict", root.direction_conflict),
        ),
        wall_time=time.perf_counter() - start,
    )
