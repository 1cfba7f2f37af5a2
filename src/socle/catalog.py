"""Built-in examples: Betti profiles and smooth hypersurfaces.

Profiles feed the closed-form predictor; hypersurface entries pair an
explicit equation with the profile its cone predictions should match, which
is what the cross-verification suites run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .structure import BettiProfile


@dataclass(frozen=True)
class CatalogProfile:
    name: str
    profile: BettiProfile
    description: str


@dataclass(frozen=True)
class CatalogHypersurface:
    name: str
    f_text: str
    n_vars: int
    profile_name: str  # the Betti profile its predictions must match
    default_cutoff: int
    description: str


def _p(name: str, n: int, d: int, betti, desc: str) -> Tuple[str, CatalogProfile]:
    return name, CatalogProfile(name, BettiProfile(n, d, tuple(betti)), desc)


PROFILES: Dict[str, CatalogProfile] = dict(
    [
        _p("p1", 2, 1, (1, 0, 1), "a line (or any rational curve) in the projective plane"),
        _p("elliptic-p2", 2, 1, (1, 2, 1), "a smooth plane cubic curve, genus 1"),
        _p("quartic-p2", 2, 1, (1, 6, 1), "a smooth plane quartic curve, genus 3"),
        _p("twisted-cubic", 3, 1, (1, 0, 1), "the twisted cubic curve in projective 3-space"),
        _p("quadric-p3", 3, 2, (1, 0, 2, 0, 1), "a smooth quadric surface, product of two lines"),
        _p(
            "cubic-surface-p3",
            3,
            2,
            (1, 0, 7, 0, 1),
            "a smooth cubic surface, the plane blown up in six points",
        ),
        _p(
            "segre-p1xp2",
            5,
            3,
            (1, 0, 2, 0, 2, 0, 1),
            "the Segre embedding of a line times a plane",
        ),
        _p(
            "veronese-p2-p5",
            5,
            2,
            (1, 0, 1, 0, 1),
            "the Veronese embedding of the plane in projective 5-space",
        ),
    ]
)


HYPERSURFACES: Dict[str, CatalogHypersurface] = {
    h.name: h
    for h in [
        CatalogHypersurface(
            "conic-p2",
            "x^2 + y^2 + z^2",
            3,
            "p1",
            6,
            "a smooth plane conic; rational, so its cone module is simple",
        ),
        CatalogHypersurface(
            "fermat-cubic-p2",
            "x^3 + y^3 + z^3",
            3,
            "elliptic-p2",
            6,
            "the Fermat cubic curve",
        ),
        CatalogHypersurface(
            "weierstrass-cubic-p2",
            "z*y^2 - x^3 + x*z^2",
            3,
            "elliptic-p2",
            6,
            "a Weierstrass cubic with full 2-torsion",
        ),
        CatalogHypersurface(
            "quartic-p2",
            "x^4 + y^4 + z^4",
            3,
            "quartic-p2",
            4,
            "the Fermat quartic curve, genus 3",
        ),
        CatalogHypersurface(
            "quadric-p3",
            "x*y - z*w",
            4,
            "quadric-p3",
            4,
            "the smooth quadric surface in projective 3-space",
        ),
    ]
}
