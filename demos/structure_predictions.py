#!/usr/bin/env python3
"""Structure of local cohomology from Betti numbers alone, across the catalog.

Run with:  python3 demos/structure_predictions.py
"""

from socle.catalog import PROFILES
from socle.structure import CurveData, cone_homology, predict, singular_curve_h1


def main():
    for entry in PROFILES.values():
        p = entry.profile
        report = predict(p, name=entry.name)
        print(f"{entry.name}  (P^{p.n}, dim {p.d}, codim {p.r})")
        print(f"  betti: {list(p.betti)}")
        print(f"  cone homology: {list(report.cone_h)}")
        pieces = ", ".join(f"H^{i}={s}" for i, s in enumerate(report.statuses) if s != "zero")
        print(f"  nonzero modules: {pieces}")
        print(f"  critical de Rham table: {list(report.critical_dims)}")
        if report.simple:
            print("  the critical module is simple")
        else:
            print(f"  composition: quotient E^{report.quotient_e_copies} over a simple submodule")
        print(f"  ogus vanishing: {'holds' if report.ogus_vanishing else 'fails'}")
        print()

    print("degeneration identity, spelled out for the segre threefold")
    profile = PROFILES["segre-p1xp2"].profile
    n, r = profile.n, profile.r
    h = cone_homology(profile)
    dims = predict(profile).critical_dims
    for j, dim in enumerate(dims):
        mirror = 2 * n + 2 - j - r
        h_val = h[mirror] if 0 <= mirror < len(h) else 0
        print(f"  dims[{j}] = {dim}  =  h_{mirror}(cone) = {h_val}")

    print()
    print("curve singularities feeding the genus-zero row")
    print("  one node on a rational curve:   h^1 =", singular_curve_h1(CurveData(0, (2,))))
    print("  genus two with two planar pairs: h^1 =", singular_curve_h1(CurveData(2, (2, 2))))


if __name__ == "__main__":
    main()
