"""Brill-Noether numerology and the itemized dimension count.

Two expected-dimension formulas matter here.  For the locus of stable
rank-``r`` degree-``d`` bundles with at least ``k`` sections on a genus-g
curve,

    rho = r**2 * (g - 1) + 1 - k * (k - d + r*(g - 1));

for rank two with determinant pinned to the canonical bundle,

    rho_K = 3*g - 3 - k*(k + 1)/2.

``count_dimension`` prices a constructed limit series item by item: each
node gluing contributes ``4 - |forced pairs|`` parameters, each free
line-bundle choice contributes one Jacobian parameter, each component's
endomorphisms are subtracted (four dimensions for a sum of two identical
line bundles, two otherwise), and a final ``+1`` accounts for the
one-dimensional endomorphisms of the stable glued bundle.  The total is
computed from the series data alone; closed forms are used only as
independent cross-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .series import LimitSeries, validate_all


class LedgerRefusal(ValueError):
    """``count_dimension`` declines to price a series: not rank two, or not validated."""


def rho_general(r: int, d: int, g: int, k: int) -> int:
    """Expected dimension of the locus of rank-r degree-d bundles with k sections."""
    return r * r * (g - 1) + 1 - k * (k - d + r * (g - 1))


def rho_canonical(g: int, k: int) -> int:
    """Expected dimension of the rank-two canonical-determinant locus."""
    return 3 * g - 3 - k * (k + 1) // 2


def theorem_threshold(k: int) -> int:
    """Minimal genus for which the construction certifies nonemptiness."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    k1 = k // 2
    if k % 2 == 1:
        return k1 * k1 + k1 + 1
    if k1 > 2:
        return k1 * k1
    return 5 if k1 == 2 else 3


@cache
def corollary_range(k: int) -> tuple[int, int]:
    """Half-open genus interval on which rho_K exceeds the unrestricted rho.

    Over this interval the canonical-determinant component certifies a
    component of the plain degree-(2g-2) locus of larger-than-expected
    dimension.  The returned interval is verified internally against the
    two rho formulas before being handed out, once per ``k`` and process:
    the interval is cached, and a refusal is raised again on every call.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    k1 = k // 2
    if k % 2 == 0:
        lo, hi = k1 * k1, 2 * k1 * k1 - k1
    else:
        lo, hi = k1 * k1 + k1 + 1, 2 * k1 * k1 + k1
    for g in range(lo, hi):
        if rho_canonical(g, k) <= rho_general(2, 2 * g - 2, g, k):
            raise AssertionError(
                f"internal defect: no excess at g={g}, k={k} inside [{lo},{hi})"
            )
    if hi > lo and rho_canonical(hi, k) > rho_general(2, 2 * hi - 2, hi, k):
        raise AssertionError(f"internal defect: excess persists at g={hi}, k={k}")
    return (lo, hi)


@dataclass(frozen=True)
class DimensionLedger:
    """Itemized parameter count for a rank-two constructed series."""

    gluing_params: tuple[int, ...]
    moduli: tuple[int, ...]
    endo_dims: tuple[int, ...]
    stability_term: int

    @property
    def gluing_subtotal(self) -> int:
        return sum(self.gluing_params)

    @property
    def moduli_subtotal(self) -> int:
        return sum(self.moduli)

    @property
    def endo_subtotal(self) -> int:
        return sum(self.endo_dims)

    @property
    def total(self) -> int:
        return (
            self.gluing_subtotal
            + self.moduli_subtotal
            - self.endo_subtotal
            + self.stability_term
        )

    def summary_lines(self) -> list[str]:
        return [
            f"gluing    {self.gluing_subtotal:>5}  (per node: {' '.join(map(str, self.gluing_params))})",
            f"moduli    {self.moduli_subtotal:>5}",
            f"endo      {-self.endo_subtotal:>5}  (per component: {' '.join(map(str, self.endo_dims))})",
            f"stability {self.stability_term:>5}",
            f"total     {self.total:>5}",
        ]


def count_dimension(s: LimitSeries) -> DimensionLedger:
    """Price a validated rank-two series item by item.

    A series that is not rank two or fails ``validate_all`` is refused with
    ``LedgerRefusal``.

    Endomorphism dimensions are read structurally: a component that is
    ``Component.is_pencil`` (a pinned split of two identical line bundles)
    has a four-dimensional endomorphism family; every other component has
    two.
    """
    if s.rank != 2:
        raise LedgerRefusal("dimension ledger is defined for rank-two series")
    report = validate_all(s)
    if not report.all_passed:
        names = ", ".join(c.name for c in report.failures())
        raise LedgerRefusal(f"refusing unvalidated series (failing: {names})")
    gluing = tuple(node.free_parameter_count for node in s.nodes)
    moduli = tuple(c.moduli_freedom for c in s.components)
    endo = tuple(4 if c.is_pencil else 2 for c in s.components)
    return DimensionLedger(gluing, moduli, endo, stability_term=1)
