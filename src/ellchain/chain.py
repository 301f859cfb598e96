"""Chains of elliptic curves and divisor arithmetic pinned to the nodes.

The base object is a nodal curve built from ``g`` elliptic components
``C_1, ..., C_g``, each carrying two marked points ``P_i`` and ``Q_i``;
the node ``j`` identifies ``Q_j`` with ``P_{j+1}``.  The marked points are
assumed generic, so no torsion relation between them ever holds.  Under
that assumption a line bundle of the form ``O(p*P + q*Q)`` is faithfully
encoded by the integer pair ``(p, q)``, and all divisor-class arithmetic
in this package is exact arithmetic on such pairs.

Everything here is immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass


def require_ints(**fields) -> None:
    """Refuse the first of ``fields`` whose type is not ``int`` (``bool``
    included) with ``ValueError`` naming it."""
    for name, value in fields.items():
        if type(value) is not int:
            raise ValueError(f"{name} {value!r} is not an int")


@dataclass(frozen=True)
class ChainCurve:
    """A chain of ``genus`` elliptic curves glued at generic points.

    ``length`` is the number of components (equal to the genus for the
    elliptic chains used throughout; kept as a separate field so that
    non-elliptic chains remain representable).
    """

    genus: int
    length: int

    def __init__(self, genus: int, length: int | None = None):
        length = genus if length is None else length
        require_ints(genus=genus, length=length)
        for name, value in (("genus", genus), ("length", length)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "length", length)

    @property
    def node_count(self) -> int:
        return self.length - 1


@dataclass(frozen=True)
class SplitLineBundle:
    """The line bundle ``O(p*P + q*Q)`` on one elliptic component.

    Two such bundles are the same divisor class iff their ``(p, q)``
    pairs are equal; this relies on the genericity of ``P`` and ``Q``.
    """

    p: int
    q: int

    def __post_init__(self):
        # two type tests on the hot path; require_ints words the refusal
        if type(self.p) is not int or type(self.q) is not int:
            require_ints(p=self.p, q=self.q)
        if self.p < 0 or self.q < 0:
            raise ValueError(f"coefficients must be >= 0, got ({self.p}, {self.q})")

    @property
    def degree(self) -> int:
        return self.p + self.q

    @property
    def pair(self) -> tuple[int, int]:
        return (self.p, self.q)


@dataclass(frozen=True)
class Split:
    """A rank-two bundle presented as a direct sum of two line bundles."""

    first: SplitLineBundle
    second: SplitLineBundle

    @property
    def degree(self) -> int:
        return self.first.degree + self.second.degree

    @property
    def summands(self) -> tuple[SplitLineBundle, SplitLineBundle]:
        return (self.first, self.second)

    def swapped(self) -> "Split":
        return Split(self.second, self.first)


@dataclass(frozen=True)
class Indecomposable:
    """The non-split rank-two bundle of even degree used on one component.

    Only its degree and the vanishing pair ``(marked_u, marked_v)`` of its
    distinguished section are ever needed; the determinant class is not
    representable and queries for it are rejected.
    """

    degree: int
    marked_u: int
    marked_v: int

    def __post_init__(self):
        require_ints(degree=self.degree, marked_u=self.marked_u, marked_v=self.marked_v)
        if self.marked_u < 0 or self.marked_v < 0:
            raise ValueError("marked vanishing orders must be >= 0")
        if self.marked_u + self.marked_v > self.degree:
            raise ValueError(
                f"marked vanishing {self.marked_u}+{self.marked_v} exceeds degree {self.degree}"
            )


RankTwoBundle = Split | Indecomposable


class DeterminantUnavailableError(ValueError):
    """Raised when the determinant class of an indecomposable bundle is queried."""


def canonical_restriction(i: int, g: int) -> tuple[int, int]:
    """Coefficients ``(p, q)`` of the canonical bundle restricted to component ``i``.

    On a chain of ``g`` elliptic curves the restriction of the dualizing
    sheaf to component ``i`` is ``O((2i-2)*P_i + (2g-2i)*Q_i)``.
    """
    if not 1 <= i <= g:
        raise IndexError(f"component index {i} out of range 1..{g}")
    return (2 * i - 2, 2 * g - 2 * i)


def determinant(bundle: RankTwoBundle) -> tuple[int, int]:
    """Determinant class of a split bundle as a ``(p, q)`` pair.

    The determinant of ``O(p1*P+q1*Q) + O(p2*P+q2*Q)`` is the componentwise
    sum.  Indecomposable bundles store only their degree, so the class is
    unavailable and asking for it is an error.
    """
    if isinstance(bundle, Indecomposable):
        raise DeterminantUnavailableError(
            "determinant-class-unavailable: indecomposable bundles carry degree only"
        )
    return (
        bundle.first.p + bundle.second.p,
        bundle.first.q + bundle.second.q,
    )
