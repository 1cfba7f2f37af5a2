"""Closed-form structure predictions for local cohomology of cone ideals.

Given the Betti numbers of a smooth projective variety Y of dimension d in
P^n, these functions predict, over the ambient polynomial ring in n+1
variables with I the cone ideal:

* which local cohomology modules H^i_I(A) vanish (i < r and i > n+1, with
  r = n - d the codimension),
* how many copies of E (the injective hull of the residue field at the
  vertex) each module H^i_I(A) with i > r is made of,
* the full de Rham cohomology table of the critical module H^r_I(A), and
* its composition: a simple submodule supported on the affine cone, with
  quotient a direct sum of copies of E.

Everything is driven by the reduced-homology profile of the punctured affine
cone, which is determined by the Betti table through a six-case formula; the
predictions are internally cross-checked against each other on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .derham import DeRhamDims
from .errors import DomainError, InternalCheckError, NotLefschetzError


@dataclass(frozen=True)
class BettiProfile:
    """Betti numbers b_0..b_2d of a smooth proper variety of dimension d in P^n."""

    n: int
    d: int
    betti: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "betti", tuple(int(b) for b in self.betti))
        if self.d < 1:
            raise DomainError("the variety must have dimension at least 1")
        if self.n <= self.d:
            raise DomainError("the ambient projective space must be strictly larger")
        if len(self.betti) != 2 * self.d + 1:
            raise DomainError(f"need exactly {2 * self.d + 1} Betti numbers for dimension {self.d}")
        if any(b < 0 for b in self.betti):
            raise DomainError("Betti numbers are nonnegative")
        if self.betti[0] < 1:
            raise DomainError("b_0 counts connected components and must be positive")
        if self.betti != self.betti[::-1]:
            raise DomainError("a smooth proper profile must satisfy Poincare symmetry")

    @property
    def r(self) -> int:
        """Codimension of the cone ideal in the n+1 ambient variables."""
        return self.n - self.d

    def b(self, i: int) -> int:
        """Betti number with the convention b_i = 0 outside 0..2d."""
        if 0 <= i <= 2 * self.d:
            return self.betti[i]
        return 0


@dataclass(frozen=True)
class CurveData:
    """A projective curve: geometric genus plus branch counts of its singular points."""

    genus: int
    branch_counts: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "branch_counts", tuple(int(b) for b in self.branch_counts))
        if self.genus < 0:
            raise DomainError("genus is nonnegative")
        if any(b < 1 for b in self.branch_counts):
            raise DomainError("every singular point has at least one branch")


@dataclass(frozen=True)
class StructureReport:
    """Everything `predict` knows about the local cohomology of one cone ideal."""

    profile: BettiProfile
    name: Optional[str]
    cone_h: Tuple[int, ...]
    statuses: Tuple[str, ...]  # indexed 0..n+1
    e_copies: Dict[int, int]  # H^i_I(A) = E^(e_copies[i]) for i in (r, n+1]
    critical_dims: DeRhamDims  # de Rham table of H^r_I(A), indexed 0..n+1
    quotient_e_copies: int
    simple: bool
    ogus_vanishing: bool

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "profile": {
                "name": self.name,
                "n": self.profile.n,
                "d": self.profile.d,
                "r": self.profile.r,
                "betti": list(self.profile.betti),
            },
            "cone_homology": list(self.cone_h),
            "statuses": list(self.statuses),
            "e_copies": {str(i): m for i, m in sorted(self.e_copies.items())},
            "critical": {
                "index": self.profile.r,
                "derham_dims": list(self.critical_dims),
                "quotient_e_copies": self.quotient_e_copies,
                "simple": self.simple,
                "submodule": "simple module supported on the affine cone",
            },
            "ogus_vanishing": self.ogus_vanishing,
        }


# ------------------------------------------------------------ small tables


def singular_curve_h1(curve: CurveData) -> int:
    """Middle de Rham dimension of a (possibly singular) projective curve.

    Each singular point contributes one less than its number of branches on
    the normalization; the smooth part contributes twice the genus.
    """
    return 2 * curve.genus + sum(b - 1 for b in curve.branch_counts)


# ------------------------------------------------------------ cone homology


def cone_homology(profile: BettiProfile) -> List[int]:
    """Reduced homology h_0..h_{2d+2} of the punctured affine cone over Y.

    Six ranges, each a difference of Betti numbers (out-of-range b are zero):
    the two bottom entries vanish, h_2 = b_1, then b_{i-1} - b_{i-3} up to
    the middle, b_{i-2} - b_i above it, and the top two entries are b_{2d-1}
    and b_{2d}.  A negative difference means the profile violates hard
    Lefschetz and cannot come from a smooth projective variety.
    """
    if profile.b(0) != 1:
        raise DomainError("the cone homology table needs a connected variety (b_0 = 1)")
    d = profile.d
    h = [0] * (2 * d + 3)
    h[2] = profile.b(1)
    for i in range(3, d + 2):
        h[i] = profile.b(i - 1) - profile.b(i - 3)
    for i in range(d + 2, 2 * d + 1):
        h[i] = profile.b(i - 2) - profile.b(i)
    h[2 * d + 1] = profile.b(2 * d - 1)
    h[2 * d + 2] = profile.b(2 * d)
    if any(v < 0 for v in h):
        raise NotLefschetzError(
            "Betti profile produces negative cone homology; hard Lefschetz fails"
        )
    return h


# ----------------------------------------------------------------- predict


def ogus_criterion(profile: BettiProfile) -> bool:
    """Vanishing criterion: the cone has no reduced homology below degree n+1-r.

    Equivalently all the higher local cohomology modules H^i_I(A), r < i,
    vanish; equivalently the Betti numbers match the ambient projective
    space in every degree strictly below d.
    """
    h = cone_homology(profile)
    cutoff = profile.n + 1 - profile.r
    homology_form = all(v == 0 for v in h[:max(cutoff, 0)])
    restriction_form = all(
        profile.b(j) == (1 if j % 2 == 0 else 0) for j in range(profile.d)
    )
    if homology_form != restriction_form:
        raise InternalCheckError("the two vanishing formulations disagreed")
    return homology_form


def predict(profile: BettiProfile, name: Optional[str] = None) -> StructureReport:
    """Structure of all H^i_I(A) from the Betti table alone.

    Two independent formula routes are evaluated and compared on every call:
    the Betti-difference counts and the cone-homology table (which also
    drives the degeneration identity for the critical module's de Rham
    dimensions).  A mismatch raises InternalCheckError.
    """
    n, d, r = profile.n, profile.d, profile.r
    h = cone_homology(profile)

    def h_at(i: int) -> int:
        return h[i] if 0 <= i < len(h) else 0

    # copies of E in H^i_I(A) for r < i <= n+1, by Betti differences ...
    e_copies: Dict[int, int] = {}
    for i in range(r + 1, n + 2):
        if i < n:
            m = profile.b(n - i) - profile.b(n - i - 2)
        else:
            m = 0
        # ... cross-checked against the cone homology route
        if m != h_at(n + 1 - i):
            raise InternalCheckError(
                f"module count mismatch at i={i}: {m} vs h_{n + 1 - i} = {h_at(n + 1 - i)}"
            )
        if m < 0:
            raise NotLefschetzError("negative module count; hard Lefschetz fails")
        e_copies[i] = m

    # de Rham table of the critical module H^r_I(A), piecewise in j;
    # the top entry is NOT the middle formula continued
    dims = [0] * (n + 2)
    for j in range(r, n + 1):
        dims[j] = profile.b(n + d - j) - profile.b(n + d - j + 2)
    dims[n + 1] = profile.b(d) - profile.b(d - 2)
    for j in range(n + 2):
        expect = h_at(2 * n + 2 - j - r)
        if dims[j] != expect:
            raise InternalCheckError(
                f"degeneration identity fails at j={j}: {dims[j]} vs {expect}"
            )
        if dims[j] < 0:
            raise NotLefschetzError("negative de Rham dimension; hard Lefschetz fails")

    statuses: List[str] = []
    for i in range(n + 2):
        if i < r:
            statuses.append("zero")
        elif i == r:
            statuses.append("critical")
        else:
            m = e_copies[i]
            statuses.append(f"E^{m}" if m else "zero")

    quotient = profile.b(d) - profile.b(d - 2)
    if quotient < 0:
        raise NotLefschetzError("negative quotient count; hard Lefschetz fails")

    return StructureReport(
        profile=profile,
        name=name,
        cone_h=tuple(h),
        statuses=tuple(statuses),
        e_copies=e_copies,
        critical_dims=DeRhamDims(tuple(dims)),
        quotient_e_copies=quotient,
        simple=quotient == 0,
        ogus_vanishing=ogus_criterion(profile),
    )
