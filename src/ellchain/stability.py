"""Combinatorial (semi)stability verdicts for glued chain bundles.

Semistability is component-wise: a split of two line bundles of equal
degree, or an indecomposable bundle of even degree, restricts
semistably, and a chain bundle with semistable restrictions is
semistable.  That rule is encoded here as an axiom.

Stability then fails exactly when some choice of slope-equal line
subbundle on every component is identified globally by the node gluings.
The candidate subbundles are: the two summands of a split of distinct
line bundles (including the two distinct generic bundles of a free
component), the unique maximal subbundle of an indecomposable bundle
(its marked direction), and, for a split of two identical line bundles,
a whole pencil of subbundles realizing every fiber direction with one
shared parameter at both marked points.

A candidate chain survives a node only if the gluing identifies the
selected directions there: forced pairs identify summand directions
outright; a pencil absorbs any required direction at the cost of fixing
its parameter; and a gluing whose free part is generic sends any other
direction somewhere new, killing the chain.  The unforced part of every
gluing is taken to be generic, as the paper's construction assumes, so
the verdict is ``stable`` when every chain dies and
``strictly-semistable`` when one survives.  ``_cross`` is the one home
of that rule, and ``check_stable`` applies it in one pass over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .chain import Indecomposable, Split
from .series import (
    DIR_FIRST,
    DIR_MARKED,
    DIR_SECOND,
    Component,
    LimitSeries,
    forced_pairs_failure,
    node_count_failure,
)

FLEX = "*"
FREE_TOKEN = "free"
FIXED_TOKEN = "fixed"

VERDICT_STABLE = "stable"
VERDICT_SEMISTABLE = "strictly-semistable"


@dataclass(frozen=True)
class DestabilizingChain:
    """A candidate chain of slope-equal subbundles and its fate.

    ``selections`` lists one choice per component reached: a summand
    token, ``m`` for the indecomposable subbundle, or ``*`` for a pencil.
    ``node_status`` records, per crossed node, how the identification
    fared: ``forced``, ``free`` (absorbed by a pencil), ``generic-free``
    or ``constrained-away``.  ``killed_at`` is the 1-based node where the
    chain dies, or ``None`` for a survivor.
    """

    selections: tuple[str, ...]
    node_status: tuple[str, ...]
    killed_at: int | None


@dataclass(frozen=True)
class StabilityReport:
    verdict: str
    survivors: tuple[DestabilizingChain, ...]
    killed: tuple[DestabilizingChain, ...]


def check_semistable(s: LimitSeries) -> bool:
    """Component-wise slope balance: equal summand degrees, even indecomposables."""
    for c in s.components:
        if isinstance(c.bundle, Indecomposable):
            if c.bundle.degree % 2:
                return False
        elif isinstance(c.bundle, Split):
            if c.bundle.first.degree != c.bundle.second.degree:
                return False
    return True


def _candidates(c: Component) -> list[str]:
    """Slope-equal subbundle choices in string order: a pencil when ``Component.is_pencil``."""
    if isinstance(c.bundle, Indecomposable):
        return [DIR_MARKED]
    return [FLEX] if c.is_pencil else [DIR_FIRST, DIR_SECOND]


def _cross(token: str, sel: str, forced_of: dict[str, str]) -> tuple[str, str | None]:
    """The chain rule at one node: a chain emitting ``token`` at Q selects ``sel`` next.

    Returns the node status and the token emitted at Q of the next
    component, or ``None`` when the chain dies at this node.
    """
    if token == FREE_TOKEN:
        return FREE_TOKEN, (FREE_TOKEN if sel == FLEX else sel)
    if token in forced_of:
        if sel == FLEX:
            return "forced", FIXED_TOKEN
        return ("forced", sel) if sel == forced_of[token] else ("constrained-away", None)
    # no forced image: a pencil absorbs the token, a rigid target claimed by
    # another pair is unreachable, and the generic gluing misses any other
    if sel == FLEX:
        return FREE_TOKEN, FIXED_TOKEN
    if sel in forced_of.values():
        return "constrained-away", None
    return "generic-free", None


def check_stable(s: LimitSeries) -> StabilityReport:
    """Enumerate destabilizing chains and report the verdict.

    Every node's forced pairs are read first, and a node that
    ``forced_pairs_failure`` refuses raises ``ValueError``.  One pass over
    the nodes then crosses each live chain into every candidate of the
    next component until none is live.  No killed chain extends another
    and ``_candidates`` lists each component's choices in string order, so
    sorting killed chains by selections gives the depth-first order of the
    chain tree; survivors are already in that order.
    """
    if s.rank != 2:
        raise ValueError("stability verdicts are defined for rank-two series")
    if why := node_count_failure(s):
        raise ValueError(why)
    if not check_semistable(s):
        raise ValueError("check_stable requires a component-wise semistable series")
    for n, node in enumerate(s.nodes, start=1):
        if why := forced_pairs_failure(node.forced_pairs):
            raise ValueError(f"node {n}: {why}")
    # live chains: (token emitted at Q of the last component, selections, statuses)
    live = [
        (FREE_TOKEN if sel == FLEX else sel, (sel,), ()) for sel in _candidates(s.components[0])
    ]
    killed: list[DestabilizingChain] = []
    for n, (node, c) in enumerate(zip(s.nodes, s.components[1:]), start=1):
        if not live:
            break
        forced_of, candidates, crossed = dict(node.forced_pairs), _candidates(c), []
        for token, selections, statuses in live:
            for sel in candidates:
                status, out = _cross(token, sel, forced_of)
                if out is None:
                    killed.append(DestabilizingChain(selections + (sel,), statuses + (status,), n))
                else:
                    crossed.append((out, selections + (sel,), statuses + (status,)))
        live = crossed
    killed.sort(key=attrgetter("selections"))
    survivors = tuple(DestabilizingChain(sel, statuses, None) for _, sel, statuses in live)
    verdict = VERDICT_SEMISTABLE if survivors else VERDICT_STABLE
    return StabilityReport(verdict, survivors, tuple(killed))


def external_stable_case(g: int, k: int) -> bool:
    """The one (g, k) whose stable representative is certified externally.

    For three sections on a genus-3 chain every gluing choice leaves the
    glued bundle strictly semistable; a stable bundle with the same
    invariants exists on smooth non-hyperelliptic curves (the dual of the
    kernel of the canonical evaluation map) and is taken as a certified
    external fact rather than constructed here.
    """
    return (g, k) == (3, 3)
