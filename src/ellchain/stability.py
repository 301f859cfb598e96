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
``strictly-semistable`` when one survives.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Slope-equal subbundle choices: a pencil when ``Component.is_pencil``."""
    if isinstance(c.bundle, Indecomposable):
        return [DIR_MARKED]
    return [FLEX] if c.is_pencil else [DIR_FIRST, DIR_SECOND]


def check_stable(s: LimitSeries) -> StabilityReport:
    """Enumerate destabilizing chains and report the verdict.

    Every node's gluing is taken to be generic away from its forced
    pairs, so a chain that needs an unforced identification of rigid
    directions dies there.  Each node's forced pairs are read once, and a
    node that ``forced_pairs_failure`` refuses raises ``ValueError``.
    """
    if s.rank != 2:
        raise ValueError("stability verdicts are defined for rank-two series")
    if why := node_count_failure(s):
        raise ValueError(why)
    if not check_semistable(s):
        raise ValueError("check_stable requires a component-wise semistable series")
    # the forced image of a direction at each node that forces one
    forced: dict[int, dict[str, str]] = {}
    for idx, node in enumerate(s.nodes):
        if node.forced_pairs:
            if why := forced_pairs_failure(node.forced_pairs):
                raise ValueError(f"node {idx + 1}: {why}")
            forced[idx] = dict(node.forced_pairs)

    survivors: list[DestabilizingChain] = []
    killed: list[DestabilizingChain] = []

    def extend(idx: int, token: str, selections: tuple[str, ...],
               statuses: tuple[str, ...]) -> None:
        # idx: 0-based node about to be crossed; token: direction emitted
        # at Q of component idx+1
        if idx == len(s.nodes):
            survivors.append(DestabilizingChain(selections, statuses, None))
            return
        forced_of = forced.get(idx, {})
        for sel in _candidates(s.components[idx + 1]):
            # out: the token emitted at Q of the next component, or None
            # when the chain dies at this node
            if token == FREE_TOKEN:
                status, out = FREE_TOKEN, (FREE_TOKEN if sel == FLEX else sel)
            elif token in forced_of:
                if sel == FLEX:
                    status, out = "forced", FIXED_TOKEN
                elif sel == forced_of[token]:
                    status, out = "forced", sel
                else:
                    status, out = "constrained-away", None
            # token has no forced image: a pencil absorbs it, a rigid target
            # claimed by another forced pair is unreachable, and the generic
            # gluing sends it past any other rigid target
            elif sel == FLEX:
                status, out = FREE_TOKEN, FIXED_TOKEN
            elif sel in forced_of.values():
                status, out = "constrained-away", None
            else:
                status, out = "generic-free", None
            new_sel, new_statuses = selections + (sel,), statuses + (status,)
            if out is None:
                killed.append(DestabilizingChain(new_sel, new_statuses, idx + 1))
            else:
                extend(idx + 1, out, new_sel, new_statuses)

    for sel in _candidates(s.components[0]):
        extend(0, FREE_TOKEN if sel == FLEX else sel, (sel,), ())

    verdict = VERDICT_SEMISTABLE if survivors else VERDICT_STABLE
    return StabilityReport(verdict, tuple(survivors), tuple(killed))


def external_stable_case(g: int, k: int) -> bool:
    """The one (g, k) whose stable representative is certified externally.

    For three sections on a genus-3 chain every gluing choice leaves the
    glued bundle strictly semistable; a stable bundle with the same
    invariants exists on smooth non-hyperelliptic curves (the dual of the
    kernel of the canonical evaluation map) and is taken as a certified
    external fact rather than constructed here.
    """
    return (g, k) == (3, 3)
