"""Limit linear series data on elliptic chains, and its validators.

A limit linear series of rank ``r``, dimension ``k`` and degree ``d`` on a
chain of ``M`` curves consists of, per component, a bundle and a
``k``-dimensional space of sections; per node, an identification of the
projectivized fibers; and a global twist integer ``a``, subject to

* (a) ``sum(d_i) - r*(M-1)*a == d``,
* (b) matched vanishing orders across each node satisfy ``v + u >= a``,
* (c) sections twisted down by ``a`` at either marked point are determined
  by their values at the nodes.

Section spaces are tracked purely by vanishing orders.  On an elliptic
curve, a ``k``-dimensional space of sections of a degree-``d`` line bundle
can be pinned down by ``k`` distinct vanishing pairs ``(u, v)`` at two
generic points with ``u + v = d - 1``; the only way to reach ``u + v = d``
is the distinguished section of ``O(u*P + v*Q)`` itself, and only when the
bundle is exactly that class.  For rank two every vanishing value may
appear twice.  This module encodes that calculus exactly:

* admissibility charges each table row either to the generic ``d - 1``
  budget of a summand or to the single ``sum = d`` slot that a pinned
  summand provides;
* the direction-pinning rule decides when a row's section has a forced
  direction in the fiber at a node, which is what turns some gluings from
  four free parameters into three or two.  It lives in one place and runs
  once per component and side; ``Component.pins_nothing`` is its part that
  reads the bundle alone (a line bundle or a generic split pins no row);
* ``q_side`` is all a node reads of its left component, and
  ``derive_forced_pairs`` takes it in place of that component;
* ``forced_pairs_failure`` is the one forced-pair rule: each pair is two
  direction tokens, no direction is forced twice on either side, and a
  node has at most two pairs.  ``derive_forced_pairs``, ``validate_all``,
  ``canonical_form`` and ``check_stable`` all apply it;
* ``validate_all`` is the one validator, of eight checks: structure and
  entry types, monotonicity, multiplicity, admissibility, the degree sum,
  the node condition, determinacy and the canonical determinant.  A few
  passes over whole-series columns (every ``u``, every ``v``, every
  summand coefficient) decide a passing series.  Any other series is
  explained by the units, which decide every check again and name each
  failure with the numbers they compared: ``component_failures`` reads
  one component, ``node_failures`` one node and its two sides, and
  ``series_failures`` the header, the counts and the degree sum;
* a vanishing table is stored as its ``u`` and ``v`` columns, which is
  how its readers take it; its rows are derived on request;
* ``parse_series`` reads a file on the writer's layout by slices: whole-file
  ``u`` and ``v`` columns cut into the tables.  Any other file is read
  record by record, each component record reading the run of row records
  below it; both read the records with the same code, and the per-token
  checks run only on the way to a ``ParseError``;
* ``serialize_series`` is one join of the series head, the component
  blocks and the node lines, rendered by ``series_head``,
  ``component_block`` and ``node_line``; the search oracle keys its
  leaves with the same renderers.

A row ``(u, v)`` on a summand of degree ``d_s`` with ``u + v = d_s - 1``
has a one-dimensional section space in that summand, but its divisor is
``u*P + v*Q + R`` with ``R`` a point determined by the summand class.  If
the summand equals ``O(u*P + (v+1)*Q)`` then ``R = Q`` and the section
actually vanishes to order ``v + 1`` at ``Q``: that summand is dead at
``Q`` for this row, and the row's direction at ``Q`` is pinned to the
other summand.  Rows with ``u + v = d_s`` are the distinguished summand
sections and are pinned at both points (unless both summands coincide, in
which case a two-dimensional space realizes every direction and nothing
is pinned).  Generic summands (free Jacobian choices) never pin.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain as _chain
from itertools import compress, cycle, islice, repeat
from operator import add, and_, attrgetter, eq, ge, le, mod, ne, sub

from .chain import (
    ChainCurve,
    Indecomposable,
    Split,
    SplitLineBundle,
    canonical_restriction,
    determinant,
)

BundleLike = Split | Indecomposable | SplitLineBundle

# Direction tokens used in forced pairs: split summands by position, or the
# marked direction of an indecomposable bundle.
DIR_FIRST = "1"
DIR_SECOND = "2"
DIR_MARKED = "m"
# a tuple, not a set: membership compares and never hashes, so a token
# that cannot be hashed fails the forced-pair rule instead of raising
_DIRECTIONS = (DIR_FIRST, DIR_SECOND, DIR_MARKED)

_INT = frozenset((int,))


@dataclass(frozen=True)
class VanishingTable:
    """Vanishing orders ``(u_j, v_j)`` at ``(P, Q)`` of a basis of sections.

    The table is stored as its two columns, ``us`` and ``vs``, which is
    how the validator, the pinning rule and the node checks read it;
    ``rows`` gives back the ``(u, v)`` pairs, derived on each read.  Rows
    are listed with ``u`` nondecreasing and ``v`` nonincreasing.  The
    constructor takes the rows and is permissive: it keeps each entry as
    given, refusing only a row that is not a pair.  Entry types,
    monotonicity, multiplicity and admissibility are the validators'
    business, so that corrupted tables remain representable and
    diagnosable.  Where the package makes tables itself (the parser, the
    construction and the search), it passes the columns to
    ``_column_table`` instead.
    """

    us: tuple[int, ...]
    vs: tuple[int, ...]

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        if not {*map(len, rows)} <= {2}:
            j, row = next((j, r) for j, r in enumerate(rows, start=1) if len(r) != 2)
            raise ValueError(f"row {j} {row!r} is not a (u, v) pair")
        us, vs = zip(*rows) if rows else ((), ())
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "vs", vs)

    def __len__(self) -> int:
        return len(self.us)

    @property
    def rows(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.us, self.vs))


def _column_table(us: tuple, vs: tuple) -> VanishingTable:
    """The table whose columns are the tuples ``us`` and ``vs``, of one length."""
    table = object.__new__(VanishingTable)
    object.__setattr__(table, "us", us)
    object.__setattr__(table, "vs", vs)
    return table


@dataclass(frozen=True)
class NodeGluing:
    """Gluing data at one node.

    ``matching`` sends section index ``t`` of the left component to
    ``matching[t-1]`` of the right component.  ``forced_pairs`` lists the
    distinct direction identifications the projectivized fiber isomorphism
    must respect, each side named by a direction token.
    """

    matching: tuple[int, ...]
    forced_pairs: tuple[tuple[str, str], ...] = ()

    @property
    def free_parameter_count(self) -> int:
        return 4 - len(self.forced_pairs)


def matching_failure(matching: tuple[int, ...], identity: tuple[int, ...]) -> str | None:
    """Why ``matching`` is not a bijection of ``identity``, the integers ``1..k``, or ``None``.

    The one home of the matching rule.  Entry types are checked before any
    compare or sort, so a float, bool or str entry fails and never crashes.
    Callers build ``identity`` once per series, not once per node.
    """
    if _INT.issuperset(map(type, matching)) and (
        matching == identity or tuple(sorted(matching)) == identity
    ):
        return None
    return f"matching {matching} is not a bijection"


def forced_pairs_failure(pairs: tuple[tuple[str, str], ...]) -> str | None:
    """Why ``pairs`` cannot be one node's forced direction pairs, or ``None``.

    The one home of the forced-pair rule: the pairs are a tuple; each pair
    is a tuple of two direction tokens from ``1``, ``2``, ``m``; no
    direction is forced twice on either side (the first pair that forces
    one again is named with the earlier pair); there are at most two pairs.
    The container's type and each pair's shape are checked before any
    token is compared, so malformed pairs fail and never crash.  Callers
    apply it to every value but ``()``.
    """
    if not isinstance(pairs, tuple):
        return f"forced pairs {pairs!r} are not a tuple"
    for j, pair in enumerate(pairs):
        if not (
            isinstance(pair, tuple)
            and len(pair) == 2
            and pair[0] in _DIRECTIONS
            and pair[1] in _DIRECTIONS
        ):
            return f"forced pair {pair!r} is not two direction tokens from 1, 2, m"
        dl, dr = pair
        for el, er in pairs[:j]:
            if (el, er) == pair:
                return f"forced pair {dl}->{dr} listed twice"
            if el == dl or er == dr:
                return f"inconsistent forced directions: {dl}->{dr} conflicts with {el}->{er}"
    if len(pairs) > 2:
        return f"more than two forced direction pairs: {list(pairs)}"
    return None


@dataclass(frozen=True)
class Component:
    """One component's bundle, vanishing table and moduli freedom.

    ``moduli_freedom`` is 1 when the bundle involves a free line-bundle
    choice on the Jacobian (the stored coefficients are then only a
    serialization representative and the summands are treated as generic);
    otherwise 0.
    """

    bundle: BundleLike
    table: VanishingTable
    moduli_freedom: int = 0

    @property
    def is_generic(self) -> bool:
        return self.moduli_freedom == 1

    @property
    def pins_nothing(self) -> bool:
        """No row has a pinned direction at either side: the one home of that rule.

        Rank-one fibers are lines and carry no direction moduli, and the
        summands of a generic split are free choices, which never pin.
        """
        b = self.bundle
        return isinstance(b, SplitLineBundle) or (self.is_generic and isinstance(b, Split))

    @property
    def is_pencil(self) -> bool:
        """A pinned split of two identical line bundles: the one home of that rule.

        Never generic: a generic component's stored coefficients are only
        representatives, so equal coefficients do not mean equal bundles.
        """
        b = self.bundle
        return isinstance(b, Split) and not self.is_generic and b.first == b.second

    @property
    def degree(self) -> int:
        return self.bundle.degree


@dataclass(frozen=True)
class LimitSeries:
    """A limit linear series on an elliptic chain."""

    chain: ChainCurve
    rank: int
    sections: int
    degree: int
    twist: int
    components: tuple[Component, ...]
    nodes: tuple[NodeGluing, ...]

    @property
    def genus(self) -> int:
        return self.chain.genus


def node_count_failure(s: LimitSeries) -> str | None:
    """Why ``s`` does not have one node between each two components, or ``None``.

    The one home of the shape rule for callers that walk components and
    nodes together; ``validate_all`` reports both counts against the chain.
    """
    if len(s.nodes) != len(s.components) - 1:
        return f"{len(s.nodes)} nodes on {len(s.components)} components"
    return None


def free_split(i: int, g: int) -> Split:
    """The stored bundle of a free component ``i`` on a genus-``g`` chain.

    Its two summands, a free line bundle and its canonical conjugate, are
    both written as the representative ``O((i-1)*P + (g-i)*Q)``.
    """
    rep = SplitLineBundle(i - 1, g - i)
    return Split(rep, rep)


# ---------------------------------------------------------------------------
# admissibility


def admissibility_failures(
    bundle: BundleLike, table: VanishingTable, generic: bool = False
) -> list[str]:
    """Diagnostics for every table row that cannot be charged to the bundle.

    Split and rank-one bundles: a row is chargeable to a summand of degree
    ``d_s`` when ``u + v == d_s - 1``, or when ``u + v == d_s`` and
    ``(u, v)`` equals that summand's coefficients exactly; each summand
    occurrence absorbs at most one such ``sum = d_s`` row.  Generic
    summands admit only the ``d_s - 1`` branch.

    Indecomposable bundles of degree ``D``: a row is chargeable when
    ``2*(u + v) <= D - 2`` (the twisted-down bundle still has at least a
    two-dimensional space of sections), or once when ``(u, v)`` is the
    marked vanishing pair of the distinguished section.

    One pass over the rows; a diagnostic is built only for a row that
    fails.
    """
    failures: list[str] = []
    if isinstance(bundle, Indecomposable):
        marked_used = False
        for j, (u, v) in enumerate(zip(table.us, table.vs), start=1):
            if 2 * (u + v) <= bundle.degree - 2:
                continue
            if (u, v) == (bundle.marked_u, bundle.marked_v) and not marked_used:
                marked_used = True
                continue
            failures.append(
                f"row {j} ({u},{v}) not chargeable to indecomposable bundle "
                f"(degree {bundle.degree}, marked ({bundle.marked_u},{bundle.marked_v}))"
            )
        return failures

    summands = [b.pair for b in bundle.summands] if isinstance(bundle, Split) else [bundle.pair]
    generic_sums = {p + q - 1 for p, q in summands}
    # the rows that need each summand's distinguished section
    slot_rows: dict[tuple[int, int], list[int]] = {}
    for j, row in enumerate(zip(table.us, table.vs), start=1):
        u, v = row
        if u + v in generic_sums:
            continue
        if not generic and row in summands:
            slot_rows.setdefault(row, []).append(j)
            continue
        failures.append(f"row {j} ({u},{v}) not chargeable to any summand")
    for pair, rows in sorted(slot_rows.items()):
        available = summands.count(pair)
        if len(rows) > available:
            failures.append(
                f"rows {rows} all require the distinguished section of summand {pair}, "
                f"which occurs {available} time(s)"
            )
    return failures


# ---------------------------------------------------------------------------
# direction pinning and forced pairs


def _pinned_directions(component: Component, side: str) -> tuple[str | None, ...]:
    """Each row's direction token forced at ``side`` ("P" or "Q"), or ``None``.

    The one home of the pinning rule: the bundle is read once, then the
    rows are walked.  A summand is alive at a row when it is the row's
    distinguished section, or when the row sits below its degree and is
    not the row one step below it at ``side`` (whose divisor's residual
    point lies at ``side``: see the module docstring).  The entries must
    be ``int``s (``_int_table``).
    """
    bundle, table = component.bundle, component.table
    if component.pins_nothing:
        return (None,) * len(table)
    rows = zip(table.us, table.vs)
    dp, dq = (1, 0) if side == "P" else (0, 1)
    if isinstance(bundle, Indecomposable):
        mu, mv = marked = (bundle.marked_u, bundle.marked_v)
        # one step below the marked twist the section space is a pencil
        # through the marked line, and leading values at the marked side
        # land on that line
        below = (mu - dp, mv - dq)
        pinned = (marked, below) if 2 * (mu + mv) == bundle.degree else (marked,)
        return tuple(DIR_MARKED if row in pinned else None for row in rows)
    (p1, q1), (p2, q2) = pair1, pair2 = bundle.first.pair, bundle.second.pair
    below1, below2 = (p1 - dp, q1 - dq), (p2 - dp, q2 - dq)
    d1, d2 = p1 + q1, p2 + q2
    pins: list[str | None] = []
    for row in rows:
        u, v = row
        alive1 = row == pair1 or (u + v < d1 and row != below1)
        alive2 = row == pair2 or (u + v < d2 and row != below2)
        # identical summands live or die together and pin nothing
        pins.append(None if alive1 == alive2 else DIR_FIRST if alive1 else DIR_SECOND)
    return tuple(pins)


def _non_int_rows(table: VanishingTable):
    """Each ``(j, u, v)`` of ``table`` with an entry whose type is not ``int``."""
    return (
        (j, u, v)
        for j, (u, v) in enumerate(zip(table.us, table.vs), start=1)
        if type(u) is not int or type(v) is not int
    )


def _int_table(table: VanishingTable) -> VanishingTable:
    """``table``, whose entries are all ``int``s; else ``ValueError`` naming
    its first row with an entry that is not.

    One type check of the two columns (``_int_columns``) decides the
    common case.
    """
    if _int_columns(table) is None:
        j, u, v = next(_non_int_rows(table))
        raise ValueError(f"row {j}: non-integer vanishing ({u!r},{v!r})")
    return table


QSide = tuple[tuple[int, str | None], ...]


def q_side(component: Component) -> QSide:
    """Each row's ``(v, pinned direction at Q)``: all a node reads of its left side.

    The pinning rule runs once over the component, not once per row.
    Raises ``ValueError`` naming the first row with an entry that is not
    an ``int``.
    """
    vs = _int_table(component.table).vs
    return tuple(zip(vs, _pinned_directions(component, "Q")))


def derive_forced_pairs(
    left_q: QSide, right: Component, matching: tuple[int, ...], twist: int
) -> tuple[tuple[str, str], ...]:
    """Distinct direction identifications forced at a node.

    ``left_q`` is ``q_side`` of the left component.  A matched row pair
    constrains the gluing only when it meets the node condition with
    equality (with slack, one side vanishes deeper than required and
    nothing must match); it then forces the gluing exactly when its
    section has a pinned direction on both sides.  Several rows may force
    the same identification; the result is deduplicated and, when there
    are any pairs, checked by ``forced_pairs_failure``.
    The pairs come out sorted, which is their order in canonical form.
    Raises ``ValueError`` naming the first row of ``right`` with an entry
    that is not an ``int``, or a matching that ``matching_failure`` refuses
    as a bijection of the rows of ``right``; ``_forced_pairs`` is the rule
    itself, for callers whose tables and matchings are well formed.
    """
    us = _int_table(right.table).us
    if why := matching_failure(matching, tuple(range(1, len(us) + 1))):
        raise ValueError(f"{why} of the {len(us)} right rows")
    return _forced_pairs(left_q, right, matching, twist)


def _forced_pairs(
    left_q: QSide, right: Component, matching: tuple[int, ...], twist: int
) -> tuple[tuple[str, str], ...]:
    """``derive_forced_pairs`` with no check of ``right`` or ``matching``:
    its entries must be ``int``s and the matching a bijection of its rows.

    The search calls it on every edge, on tables it built and the identity
    matching.  The right side is pinned once, when a row first needs it.
    """
    us = right.table.us
    right_p = None
    pairs: list[tuple[str, str]] = []
    for (v, dl), t2 in zip(left_q, matching):
        if dl is None or v + us[t2 - 1] != twist:
            continue
        if right_p is None:
            right_p = _pinned_directions(right, "P")
        dr = right_p[t2 - 1]
        if dr is not None and (dl, dr) not in pairs:
            pairs.append((dl, dr))
    if pairs and (why := forced_pairs_failure(tuple(pairs))):
        raise ValueError(why)
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# the validator


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    flags: tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}")
            for d in c.diagnostics:
                lines.append(f"      {d}")
        for f in self.flags:
            lines.append(f"note  {f}")
        return lines


def _int_columns(table: VanishingTable) -> tuple[tuple, tuple] | None:
    """A table's ``(us, vs)`` columns, or ``None`` when an entry's type is not ``int``."""
    us, vs = table.us, table.vs
    return (us, vs) if _INT.issuperset(map(type, us + vs)) else None


# a unit's item, (check, message), and a table's columns from _int_columns
Failure = tuple[str, str]
Columns = tuple[tuple, tuple] | None


def header_failures(s: LimitSeries) -> list[str]:
    """A message naming each header field whose type is not ``int``, in header order."""
    header = (("rank", s.rank), ("sections", s.sections), ("degree", s.degree), ("twist", s.twist))
    return [f"{name} {value!r} is not an int" for name, value in header if type(value) is not int]


def series_failures(s: LimitSeries) -> list[Failure]:
    """The checks' whole-series part, as ``(check, message)`` items.

    Structure's header and count lines, and condition (a): the only lines
    that read the whole chain.  A header field whose type is not ``int``
    is named (``header_failures``), and nothing else is read.
    """
    if failures := [("structure", why) for why in header_failures(s)]:
        return failures
    k, rank, twist, length = s.sections, s.rank, s.twist, s.chain.length
    m = len(s.components)
    if twist < 1:
        failures.append(("structure", f"twist {twist} must be a positive integer"))
    if rank not in (1, 2):
        failures.append(("structure", f"rank {rank} unsupported"))
    if k < 1:
        failures.append(("structure", f"sections {k} must be a positive integer"))
    if m != length:
        failures.append(("structure", f"{m} components on a chain of length {length}"))
    if len(s.nodes) != length - 1:
        failures.append(("structure", f"{len(s.nodes)} nodes on a chain of length {length}"))
    total = sum(c.degree for c in s.components)
    if total - rank * (m - 1) * twist != s.degree:
        why = f"sum(d_i) - r*(M-1)*a = {total} - {rank}*{m - 1}*{twist} != {s.degree}"
        failures.append(("degree-condition", why))
    return failures


def component_failures(
    i: int, c: Component, columns: Columns, rank: int, k: int, twist: int, g: int
) -> list[Failure]:
    """Component ``i``'s failures, as ``(check, message)`` items in report order.

    Structure's per-component part, monotonicity, multiplicity,
    admissibility, determinacy and the canonical determinant read this
    component alone, with the header's ``rank``, ``k`` and ``twist`` and
    the genus ``g``.  ``columns`` is ``_int_columns`` of its table; when it
    is ``None``, each row with an entry whose type is not ``int`` is named,
    and no row's numbers are read.
    """
    bundle, table, moduli = c.bundle, c.table, c.moduli_freedom
    # each item's message after "component i", which is put on at the end,
    # so a component that passes builds no message text
    failures = []
    if len(table) != k:
        failures.append(("structure", f": {len(table)} rows, expected {k}"))
    if type(moduli) is not int or moduli not in (0, 1):
        failures.append(("structure", f": moduli_freedom {moduli!r}"))
    line = isinstance(bundle, SplitLineBundle)
    if rank == 1 and not line:
        failures.append(("structure", ": rank-1 series needs line bundles"))
    if rank == 2 and line:
        failures.append(("structure", ": rank-2 series needs rank-two bundles"))
    if isinstance(bundle, Indecomposable) and moduli:
        failures.append(("structure", ": indecomposable bundles are never generic"))
    if columns is None:
        failures.extend(
            ("structure", f" row {j}: non-integer vanishing ({u!r},{v!r})")
            for j, u, v in _non_int_rows(table)
        )
    else:
        us, vs = columns
        failures.extend(
            ("structure", f" row {j}: negative vanishing ({u},{v})")
            for j, (u, v) in enumerate(zip(us, vs), start=1)
            if u < 0 or v < 0
        )
        sorted_us, sorted_vs = sorted(us), sorted(vs)
        if sorted_us != list(us):
            failures.append(("monotonicity", f": u not nondecreasing {us}"))
        if sorted_vs[::-1] != list(vs):
            failures.append(("monotonicity", f": v not nonincreasing {vs}"))
        # in a sorted column a value occurs more than rank times exactly
        # when it equals the value rank places on; the counts are taken
        # only then
        if (
            rank < 1
            or any(map(eq, sorted_us, sorted_us[rank:]))
            or any(map(eq, sorted_vs, sorted_vs[rank:]))
        ):
            allows = f"(rank {rank} allows {rank})"
            failures.extend(
                ("multiplicity", f": {label}-value {value} occurs {n} times {allows}")
                for label, values in zip("uv", columns)
                for value, n in sorted(Counter(values).items())
                if n > rank
            )
        failures.extend(
            ("admissibility", f": {why}")
            for why in admissibility_failures(bundle, table, c.is_generic)
        )
    if why := _determinacy_failure(bundle, twist):
        failures.append(("determinacy", f": {why}"))
    if why := _canonical_failure(bundle, i, g):
        failures.append(("canonical-determinant", f": {why}"))
    return [(check, f"component {i}{why}") for check, why in failures]


def node_failures(
    n: int, node: NodeGluing, sides: list[Columns], k: int, twist: int, identity: tuple[int, ...]
) -> list[Failure]:
    """Node ``n``'s failures, as ``(check, message)`` items in report order.

    The forced-pair shape (structure) and condition (b).  ``sides`` is
    ``_int_columns`` of the tables on its two sides, those that exist,
    and ``identity`` is ``1..k``; of the left side only the ``v`` column is
    read.  The node condition fails outright when
    ``matching_failure`` refuses the matching, or a side has an entry that
    is not an ``int`` or a short or missing table; else each matched row
    pair below the twist is named.
    """
    at = f"node {n}:"
    failures = []
    if why := forced_pairs_failure(node.forced_pairs):
        failures.append(("structure", f"{at} {why}"))
    matching = node.matching
    if why := matching_failure(matching, identity):
        failures.append(("node-condition", f"{at} {why}"))
    elif None in sides:
        failures.append(("node-condition", f"{at} components {n} and {n + 1} need integer rows"))
    elif len(sides) < 2 or min(len(sides[0][1]), len(sides[1][0])) < k:
        why = f"matching needs {k} rows on components {n} and {n + 1}"
        failures.append(("node-condition", f"{at} {why}"))
    else:
        vs, us = sides[0][1], sides[1][0]
        matched_us = us[:k] if matching == identity else [us[t2 - 1] for t2 in matching]
        failures.extend(
            ("node-condition", f"{at} rows {t}->{t2} have v+u = {v}+{u} < twist {twist}")
            for t, (t2, v, u) in enumerate(zip(matching, vs, matched_us), start=1)
            if v + u < twist
        )
    return failures


def _determinacy_failure(bundle: BundleLike, twist: int) -> str | None:
    """Condition (c) on one component, by the sufficient degree criterion.

    A section of a line bundle of degree at most ``a``, twisted down by
    ``a`` at a point, has nonpositive degree and is determined by its
    value there; so split summands of degree ``<= a`` suffice, and an
    indecomposable bundle of degree ``<= 2a`` likewise.  Returns the
    numbers that break it, or ``None``.
    """
    if isinstance(bundle, Indecomposable):
        if bundle.degree <= 2 * twist:
            return None
        return f"indecomposable degree {bundle.degree} > 2*twist {2 * twist}"
    degree = max(b.degree for b in (bundle.summands if isinstance(bundle, Split) else (bundle,)))
    return None if degree <= twist else f"summand degree {degree} > twist {twist}"


def _canonical_failure(bundle: BundleLike, i: int, g: int) -> str | None:
    """Why component ``i``'s determinant is not the canonical restriction, or ``None``.

    A component beyond the genus has no canonical restriction and fails.
    Indecomposable components are checked on degree only (their class is
    not representable); ``validate_all`` flags that weaker check.
    """
    if i > g:
        return f"beyond genus {g}, no canonical restriction"
    want = canonical_restriction(i, g)
    if isinstance(bundle, Indecomposable):
        if bundle.degree == sum(want):
            return None
        return f"degree {bundle.degree} != canonical degree {sum(want)}"
    got = bundle.pair if isinstance(bundle, SplitLineBundle) else determinant(bundle)
    if got == want:
        return None
    return f"determinant ({got[0]},{got[1]}) != canonical ({want[0]},{want[1]})"


# the checks in report order; a passing check's result carries nothing of
# the series, so one serves all
_PASSED = {
    name: CheckResult(name, True)
    for name in (
        "structure", "monotonicity", "multiplicity", "admissibility", "degree-condition",
        "node-condition", "determinacy", "canonical-determinant",
    )
}

_US = attrgetter("table.us")
_VS = attrgetter("table.vs")
_BUNDLE = attrgetter("bundle")
_SPLIT_COEFFICIENTS = attrgetter("first.p", "first.q", "second.p", "second.q")
_LINE_COEFFICIENTS = attrgetter("p", "q")
_MODULI = attrgetter("moduli_freedom")
_FORCED = attrgetter("forced_pairs")
_MATCHING = attrgetter("matching")


def _columns_pass(s: LimitSeries) -> bool:
    """Whether whole-series column passes show that ``s`` passes every check.

    ``False`` says only that the passes did not show it, and sends the
    series to the units, which decide every check.  The tables' ``u``
    columns are interleaved once, row by row, into one whole-series ``u``
    column (``chain.from_iterable(zip(*us_columns))``), their ``v``
    columns into one ``v`` column, and the coefficients into four columns;
    no row pair is built.  Each check is a few C-level passes over them: entry types by one
    ``map(type, ...)``, monotonicity and multiplicity by comparing each
    row with the one ``m`` and ``rank * m`` on, the node condition of
    identity matchings by one ``min``, admissibility by row sums against
    the summand degrees (only a row off both generic sums is looked at
    by itself), and the degree sum, determinacy and the canonical
    determinant by coefficient columns against expected ones.  An
    indecomposable component has no summand columns and is decided by its
    own unit, ``component_failures``.  The passes read only a series whose
    header fields are ``int``, whose tables are all ``sections`` rows of
    ``int`` entries, whose bundles are the rank's kinds (their
    constructors take only ``int`` fields), and whose nodes and components
    fit the genus; any other series is sent to the units.
    """
    k, rank, twist, g = s.sections, s.rank, s.twist, s.genus
    if not _INT.issuperset(map(type, (k, rank, twist, s.degree))):
        return False
    components, nodes = s.components, s.nodes
    m = len(components)
    us_columns = list(map(_US, components))
    bundles = list(map(_BUNDLE, components))
    types = list(map(type, bundles))
    kinds = {*types}
    if not (
        rank in (1, 2)
        and k >= 1
        and 1 <= m <= g
        and len(nodes) == m - 1
        and {*map(len, us_columns)} == {k}
        and kinds <= ({SplitLineBundle} if rank == 1 else {Split, Indecomposable})
    ):
        return False
    # an indecomposable bundle has no summand columns: its component is
    # decided by its own unit, and a free split stands in for it in the
    # columns
    indec = []
    if Indecomposable in kinds:
        indec = [i for i, t in enumerate(types) if t is Indecomposable]
        if any(
            component_failures(
                i + 1, components[i], _int_columns(components[i].table), rank, k, twist, g
            )
            for i in indec
        ):
            return False
    held = [bundles[i] for i in indec]
    for i in indec:
        bundles[i] = free_split(i + 1, g)
    if rank == 1:
        p1, q1 = zip(*map(_LINE_COEFFICIENTS, bundles))
        p2, q2 = p1, q1
    else:
        p1, q1, p2, q2 = zip(*map(_SPLIT_COEFFICIENTS, bundles))
    # every entry row by row: row j of component i is at j*m + i, so row
    # j + 1 of the same component is m on, and row j of the next one is 1 on
    u_rows = list(_chain.from_iterable(zip(*us_columns)))
    v_rows = list(_chain.from_iterable(zip(*map(_VS, components))))
    if not _INT.issuperset(map(type, _chain(u_rows, v_rows))):
        return False

    # structure, with every forced-pair value but () put to the rule, then
    # monotonicity and multiplicity: in a sorted column a value occurs more
    # than rank times exactly when it equals the value rank rows on
    moduli = list(map(_MODULI, components))
    forced = list(map(_FORCED, nodes))
    if not (
        twist >= 1
        and m == s.chain.length
        and min(u_rows) >= 0
        and min(v_rows) >= 0
        and _INT.issuperset(map(type, moduli))
        and moduli.count(0) + moduli.count(1) == m
        and not any(map(forced_pairs_failure, compress(forced, map(ne, forced, repeat(())))))
        and all(map(le, u_rows, islice(u_rows, m, None)))
        and all(map(ge, v_rows, islice(v_rows, m, None)))
        and not any(map(eq, u_rows, islice(u_rows, rank * m, None)))
        and not any(map(eq, v_rows, islice(v_rows, rank * m, None)))
    ):
        return False

    d1 = list(map(add, p1, q1))
    d2 = d1 if rank == 1 else list(map(add, p2, q2))
    generic1 = list(map(sub, d1, repeat(1, m)))
    generic2 = generic1 if d2 == d1 else list(map(sub, d2, repeat(1, m)))
    off = map(ne, map(add, u_rows, v_rows), cycle(generic1))
    if generic2 is not generic1:
        off = map(and_, off, map(ne, map(add, u_rows, v_rows), cycle(generic2)))
    # a row off both generic sums d_s - 1 must be the coefficients of a
    # summand of a component that is not generic, each summand taking at
    # most one such row; an indecomposable component's unit passed its rows
    off_at = list(compress(range(m * k), off))
    uses = Counter(
        zip(
            map(mod, off_at, repeat(m)),
            map(u_rows.__getitem__, off_at),
            map(v_rows.__getitem__, off_at),
        )
    )
    if not all(
        i in indec
        or (
            moduli[i] != 1
            and n <= ((p1[i], q1[i]) == (u, v)) + (rank == 2 and (p2[i], q2[i]) == (u, v))
        )
        for (i, u, v), n in uses.items()
    ):
        return False

    degrees = d1 if rank == 1 else list(map(add, d1, d2))
    for i, b in zip(indec, held):
        degrees[i] = b.degree
    if sum(degrees) - rank * (m - 1) * twist != s.degree:
        return False

    identity = tuple(range(1, k + 1))
    matchings = list(map(_MATCHING, nodes))
    # an identity matching pairs row j of each component with row j of the
    # next, one on, leaving out the last component's pairs with the first
    # one's next row; any other matching is left to the units
    paired = cycle((True,) * (m - 1) + (False,))
    if not (
        matchings.count(identity) == m - 1
        and _INT.issuperset(map(type, _chain.from_iterable(matchings)))
        and min(compress(map(add, v_rows, islice(u_rows, 1, None)), paired), default=twist)
        >= twist
    ):
        return False

    # determinacy, then the canonical determinant: component i's canonical
    # restriction is (2i - 2, 2g - 2i)
    det_p, det_q = (p1, q1) if rank == 1 else (list(map(add, p1, p2)), map(add, q1, q2))
    return (
        max(d1) <= twist
        and max(d2) <= twist
        and all(map(eq, det_p, range(0, 2 * m, 2)))
        and all(map(eq, map(sub, repeat(2 * g - 2), det_p), det_q))
    )


def validate_all(s: LimitSeries) -> ValidationReport:
    """Decide every check on ``s`` and collect a per-check report.

    This is the one validator.  ``_columns_pass`` decides a passing series
    by passes over whole-series columns.  Any other series is explained in
    one walk over the units, which decide every check and name each
    failure with the numbers they compared: ``series_failures``, then
    ``component_failures`` of each component and ``node_failures`` of each
    node, their items grouped by check.  The column passes only shortcut
    the units, so the report is the same either way.  A component with an
    entry whose type is not ``int`` is a structure failure, and its numbers
    are not read.  So is a ``rank``, ``sections``, ``degree`` or ``twist``
    whose type is not ``int``; then nothing but the header is read, and
    every other check passes.
    """
    flags = tuple(
        f"component {i}: indecomposable; determinant checked on degree only, "
        f"determinacy by the degree <= 2*twist criterion"
        for i, c in enumerate(s.components, start=1)
        if isinstance(c.bundle, Indecomposable)
    )
    if _columns_pass(s):
        return ValidationReport(tuple(_PASSED.values()), flags)
    k, rank, twist, g = s.sections, s.rank, s.twist, s.genus
    failures = series_failures(s)
    if _INT.issuperset(map(type, (k, rank, twist, s.degree))):
        columns = [_int_columns(c.table) for c in s.components]
        for i, (c, cols) in enumerate(zip(s.components, columns), start=1):
            failures += component_failures(i, c, cols, rank, k, twist, g)
        identity = tuple(range(1, k + 1))
        for n, node in enumerate(s.nodes, start=1):
            failures += node_failures(n, node, columns[n - 1 : n + 1], k, twist, identity)
    found: dict[str, list[str]] = {name: [] for name in _PASSED}
    for check, message in failures:
        found[check].append(message)
    checks = (CheckResult(name, False, tuple(d)) if d else _PASSED[name] for name, d in found.items())
    return ValidationReport(tuple(checks), flags)


# ---------------------------------------------------------------------------
# file format

FORMAT_HEADER = "ellchain-series"
FORMAT_VERSION = "v1"


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_ROW = "  row %s %s\n"


def series_head(s: LimitSeries) -> str:
    """The header and parameter lines of ``s``'s file, newline-terminated."""
    return (
        f"{FORMAT_HEADER} {FORMAT_VERSION}\n"
        f"genus {s.genus} rank {s.rank} sections {s.sections} "
        f"degree {s.degree} twist {s.twist}\n"
    )


def component_block(i: int, c: Component) -> str:
    """Component ``i``'s record and its row records, newline-terminated."""
    b = c.bundle
    if isinstance(b, Split):
        kind = f"split {b.first.p} {b.first.q} {b.second.p} {b.second.q}"
    elif isinstance(b, SplitLineBundle):
        kind = f"line {b.p} {b.q}"
    else:
        kind = f"indec {b.degree} {b.marked_u} {b.marked_v}"
    # one %-format writes all rows (and, below, a whole matching), which
    # keeps the per-component call from slowing the writer; "%s" writes
    # str(x), the text an f-string field gives int, bool, float and str
    us, vs = c.table.us, c.table.vs
    entries = [None] * (2 * len(us))  # row by row: each u, then its v
    entries[::2], entries[1::2] = us, vs
    return f"component {i} {kind} moduli {c.moduli_freedom}\n" + _ROW * len(us) % tuple(entries)


def node_line(n: int, node: NodeGluing) -> str:
    """Node ``n``'s record, newline-terminated; no forced pairs is ``-``."""
    matching = tuple(node.matching)
    entries = " ".join(["%s"] * len(matching)) % matching
    pairs = node.forced_pairs
    forced = " ".join([f"{a}:{b}" for a, b in pairs]) if pairs else "-"
    return f"node {n} matching {entries} forced {forced}\n"


def serialize_series(s: LimitSeries) -> str:
    """Canonical textual form; parse/serialize round-trips byte-identically.

    The head, then every component block, then every node line: the same
    renderers the search oracle keys its leaves with.
    """
    return "".join(
        [
            series_head(s),
            *(component_block(i, c) for i, c in enumerate(s.components, start=1)),
            *(node_line(n, node) for n, node in enumerate(s.nodes, start=1)),
        ]
    )


# (record kind, coefficient count) -> bundle constructor
_BUNDLE_RECORDS = {
    ("split", 4): lambda p1, q1, p2, q2: Split(SplitLineBundle(p1, q1), SplitLineBundle(p2, q2)),
    ("line", 2): SplitLineBundle,
    ("indec", 3): Indecomposable,
}


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected integer {what}, got {token!r}") from None


def _parse_ints(tokens: list[str], line_no: int, what: str) -> list[int]:
    """``tokens`` as integers, read by one ``map(int, ...)``.

    Only when that fails are they re-read one at a time by ``_parse_int``,
    so that the error names the first bad token.
    """
    try:
        return list(map(int, tokens))
    except ValueError:
        return [_parse_int(t, line_no, what) for t in tokens]


def _component_record(tokens: list[str], line_no: int, index: int) -> tuple[BundleLike, int]:
    """The bundle and moduli freedom of component record ``tokens``, which
    must be component ``index``; a malformed record raises ``ParseError``."""
    if len(tokens) < 3:
        raise ParseError(line_no, "truncated component record")
    (i,) = _parse_ints(tokens[1:2], line_no, "component index")
    if i != index:
        raise ParseError(line_no, f"component index {i} out of order")
    bkind = tokens[2]
    rest = tokens[3:]
    if len(rest) < 2 or rest[-2] != "moduli":
        raise ParseError(line_no, "component record must end with 'moduli <n>'")
    (moduli,) = _parse_ints(rest[-1:], line_no, "moduli freedom")
    coeffs = _parse_ints(rest[:-2], line_no, "bundle coefficient")
    make = _BUNDLE_RECORDS.get((bkind, len(coeffs)))
    if make is None:
        raise ParseError(line_no, f"bad bundle record {bkind!r} {coeffs}")
    try:
        return make(*coeffs), moduli
    except ValueError as e:
        raise ParseError(line_no, f"bad bundle record {bkind!r} {coeffs}: {e}") from None


def _node_record(tokens: list[str], line_no: int, index: int, k: int) -> NodeGluing:
    """The gluing of node record ``tokens``, which must be node ``index`` of
    a series with ``k`` sections; a malformed record raises ``ParseError``."""
    if len(tokens) < 4 or tokens[2] != "matching":
        raise ParseError(line_no, "expected 'node <i> matching ... forced ...'")
    (i,) = _parse_ints(tokens[1:2], line_no, "node index")
    if i != index:
        raise ParseError(line_no, f"node index {i} out of order")
    try:
        split_at = tokens.index("forced")
    except ValueError:
        raise ParseError(line_no, "node record missing 'forced'") from None
    matching = tuple(_parse_ints(tokens[3:split_at], line_no, "matching entry"))
    if len(matching) != k:
        raise ParseError(line_no, f"matching has {len(matching)} entries, expected {k}")
    forced_tokens = tokens[split_at + 1 :]
    if not forced_tokens:
        raise ParseError(line_no, "empty 'forced' field; '-' writes no pairs")
    forced: list[tuple[str, str]] = []
    if forced_tokens != ["-"]:
        for t in forced_tokens:
            sides = t.split(":")
            if len(sides) != 2 or not all(x in (DIR_FIRST, DIR_SECOND, DIR_MARKED) for x in sides):
                raise ParseError(line_no, f"bad forced pair {t!r}")
            forced.append((sides[0], sides[1]))
    return NodeGluing(matching, tuple(forced))


# row lines as the writer lays them out, each ended by "\n"; they are matched
# a chunk at a time, as the matcher holds some state for every line it
# has matched (about 10 MB for one match over the 30,000 row lines of a
# g = 1000, k = 30 file)
_ROW_LINES = re.compile(r"(?:  row -?[0-9]+ -?[0-9]+\n)*")
_ROW_CHUNK = 1024


def _parse_layout(
    lines: list[str], g: int, k: int
) -> tuple[list[Component], list[NodeGluing]] | None:
    """The components and nodes of ``lines``, read by slices of the layout
    ``serialize_series`` writes; ``None`` for a file off that layout.

    ``lines`` has the writer's count, ``2 + g(k + 1) + (g - 1)``, and
    ``k >= 1``.  The component records sit at stride ``k + 1``.  Every
    other line of the blocks must be a row line exactly as the writer
    writes it, which a ``fullmatch`` over the join of each chunk of them
    decides line by line (a whole-text token count would take ``row 1``
    and a ``2`` on the next line); a ``split`` of each chunk then gives
    whole-file ``u`` and ``v`` columns, sliced per component.  A node
    line equal to the writer's line for the identity, unforced gluing is
    that gluing; every other record is read by the line parser's own
    record code.  So a series read here is the one the line parser reads.
    A record that is not of its kind, or that the record code refuses,
    gives ``None``, and the line parser names the error.
    """
    stride = k + 1
    end = 2 + g * stride
    body = lines[2:end]
    records = body[::stride]
    del body[::stride]
    u_column: list[int] = []
    v_column: list[int] = []
    for at in range(0, len(body), _ROW_CHUNK):
        rows = "\n".join(body[at : at + _ROW_CHUNK]) + "\n"
        if not _ROW_LINES.fullmatch(rows):
            return None
        tokens = rows.split()
        u_column += map(int, tokens[1::3])
        v_column += map(int, tokens[2::3])
    us, vs = tuple(u_column), tuple(v_column)
    identity = tuple(range(1, k + 1))
    unforced = NodeGluing(identity)
    tail = f" matching {' '.join(map(str, identity))} forced -"
    components: list[Component] = []
    nodes: list[NodeGluing] = []
    try:
        for i, record in enumerate(records):
            fields = record.split()
            if fields[:1] != ["component"]:
                return None
            bundle, moduli = _component_record(fields, 3 + i * stride, i + 1)
            at = i * k
            table = _column_table(us[at : at + k], vs[at : at + k])
            components.append(Component(bundle, table, moduli))
        for n, line in enumerate(lines[end:], start=1):
            if line == f"node {n}{tail}":
                nodes.append(unforced)
                continue
            fields = line.split()
            if fields[:1] != ["node"]:
                return None
            nodes.append(_node_record(fields, end + n, n, k))
    except ParseError:
        return None
    return components, nodes


def _parse_lines(
    lines: list[str], g: int, k: int
) -> tuple[list[Component], list[NodeGluing]]:
    """The components and nodes of ``lines``, read record by record; a
    malformed line raises ``ParseError``.

    Records are read in one loop over the lines.  A component record reads
    the run of ``row <u> <v>`` records below it, blank lines skipped, and
    builds its table from that run's integers, by one comprehension.  Only
    a field or run that does not read that way is re-read one token at a
    time, so the error names the line and token it always named, and the
    per-token checks run only on the way to it.  A run of the wrong length
    fails at the record that ends it, or just past the last line; a run
    ended by an unknown record is left to the loop, which names that
    record.
    """
    components: list[Component] = []
    nodes: list[NodeGluing] = []
    at = 2  # index of the next line to read; its line number is at + 1
    ended: list[str] = []  # the record that ended a run of rows, split once
    while at < len(lines):
        tokens, ended = ended or lines[at].split(), []
        at += 1
        line_no = at
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "component":
            bundle, moduli = _component_record(tokens, line_no, len(components) + 1)
            # the run of row records below it, blank lines skipped
            run: list[list[str]] = []
            first = at
            for at in range(first, len(lines)):
                tokens = lines[at].split()
                if tokens:
                    if tokens[0] != "row":
                        ended = tokens
                        break
                    run.append(tokens)
            else:
                at = len(lines)
            try:
                rows = [(int(u), int(v)) for _, u, v in run]
            except ValueError:
                for line_no, tokens in enumerate(map(str.split, lines[first:at]), start=first + 1):
                    if tokens and len(tokens) != 3:
                        raise ParseError(line_no, "expected 'row <u> <v>'") from None
                    for token, what in zip(tokens[1:], "uv"):
                        _parse_int(token, line_no, what)
                raise
            # an unknown record that ends the run is the loop's to name
            if len(rows) != k and (not ended or ended[0] in ("component", "node")):
                raise ParseError(
                    at + 1, f"component {len(components) + 1} has {len(rows)} rows, expected {k}"
                )
            components.append(Component(bundle, VanishingTable(rows), moduli))
        elif kind == "row":
            raise ParseError(line_no, "row outside a component record")
        elif kind == "node":
            nodes.append(_node_record(tokens, line_no, len(nodes) + 1, k))
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    if len(components) != g:
        raise ParseError(len(lines), f"{len(components)} components, expected genus {g}")
    if len(nodes) != g - 1:
        raise ParseError(len(lines), f"{len(nodes)} nodes, expected {g - 1}")
    return components, nodes


def parse_series(text: str) -> LimitSeries:
    """Read the text of a series file; a malformed line raises ``ParseError``.

    The head is read first.  A file with as many lines as
    ``serialize_series`` writes for its genus and sections is then read by
    slices of that layout (``_parse_layout``): whole-file ``u`` and ``v``
    columns, cut into each component's table, with no row pair built.
    Any other file, and any file the slices refuse, is read record by
    record (``_parse_lines``), which raises every ``ParseError`` past the
    head.  Both read the records with the same code, so a file gives the
    same series, or the same error at the same line, either way.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    # int() also reads '_' separators, a '+' sign and non-ASCII digits, none
    # of which the format writes; one scan of the text keeps parsing cheap
    if not text.isascii() or "_" in text or "+" in text:
        at = next(i for i, ch in enumerate(text) if not ch.isascii() or ch in "_+")
        raise ParseError(len(text[: at + 1].splitlines()), f"unexpected character {text[at]!r}")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_HEADER:
        raise ParseError(1, f"expected '{FORMAT_HEADER} <version>' header")
    if head[1] != FORMAT_VERSION:
        raise ParseError(1, f"unknown format version {head[1]!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing parameter line")
    params = lines[1].split()
    expected_keys = ["genus", "rank", "sections", "degree", "twist"]
    if len(params) != 10 or params[0::2] != expected_keys:
        raise ParseError(2, f"expected '{' '.join(k + ' <n>' for k in expected_keys)}'")
    try:
        g, r, k, d, a = map(int, params[1::2])
    except ValueError:
        g, r, k, d, a = (_parse_int(params[i], 2, params[i - 1]) for i in (1, 3, 5, 7, 9))
    if g < 1:
        raise ParseError(2, f"genus must be >= 1, got {g}")
    read = None
    if k >= 1 and len(lines) == 2 + g * (k + 1) + g - 1:
        read = _parse_layout(lines, g, k)
    components, nodes = read or _parse_lines(lines, g, k)
    return LimitSeries(
        chain=ChainCurve(g),
        rank=r,
        sections=k,
        degree=d,
        twist=a,
        components=tuple(components),
        nodes=tuple(nodes),
    )
