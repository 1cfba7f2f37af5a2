"""Structure predictions from Betti profiles, and the small curve tables."""

import pytest

from socle.catalog import HYPERSURFACES, PROFILES
from socle.errors import DomainError, NotLefschetzError
from socle.structure import (
    BettiProfile,
    CurveData,
    cone_homology,
    ogus_criterion,
    predict,
    singular_curve_h1,
)


def test_singular_curve_h1():
    # a nodal rational curve: one point with two branches
    assert singular_curve_h1(CurveData(0, (2,))) == 1
    # genus two with two nodes
    assert singular_curve_h1(CurveData(2, (2, 2))) == 6
    # no singular points: plain 2g
    assert singular_curve_h1(CurveData(3)) == 6


def test_profile_validation():
    # every check runs in the constructor
    for args in (
        (2, 1, (1, 2)),  # wrong length
        (1, 1, (1, 0, 1)),  # n must exceed d
        (2, 0, (1,)),  # d must be at least 1
        (2, 1, (1, 2, 2)),  # breaks symmetry
        (2, 1, (1, -1, 1)),  # negative
        (2, 1, (0, 2, 0)),  # b_0 must be positive
    ):
        with pytest.raises(DomainError):
            BettiProfile(*args)


def test_cone_homology_frozen_tables():
    # worked by hand from the case-by-case description of H_*(cone)
    assert cone_homology(PROFILES["p1"].profile) == [0, 0, 0, 0, 1]
    assert cone_homology(PROFILES["elliptic-p2"].profile) == [0, 0, 2, 2, 1]
    assert cone_homology(PROFILES["quadric-p3"].profile) == [0, 0, 0, 1, 1, 0, 1]
    assert cone_homology(PROFILES["segre-p1xp2"].profile) == [0, 0, 0, 1, 0, 0, 1, 0, 1]


def test_cone_homology_needs_connected():
    with pytest.raises(DomainError):
        cone_homology(BettiProfile(2, 1, (2, 0, 2)))


def test_cone_homology_rejects_non_lefschetz():
    # b = [1, 0, 0, 0, 1]: h_3 = b_2 - b_0 < 0 is impossible for a cone
    with pytest.raises(NotLefschetzError):
        cone_homology(BettiProfile(3, 2, (1, 0, 0, 0, 1)))


def test_ogus_criterion():
    assert ogus_criterion(PROFILES["p1"].profile)
    assert ogus_criterion(PROFILES["elliptic-p2"].profile)
    assert ogus_criterion(PROFILES["veronese-p2-p5"].profile)
    assert not ogus_criterion(PROFILES["segre-p1xp2"].profile)


def test_predict_critical_dims_frozen():
    cases = {
        "p1": [0, 1, 0, 0],
        "elliptic-p2": [0, 1, 2, 2],
        "quartic-p2": [0, 1, 6, 6],
        "twisted-cubic": [0, 0, 1, 0, 0],
        "quadric-p3": [0, 1, 0, 1, 1],
        "cubic-surface-p3": [0, 1, 0, 6, 6],
        "segre-p1xp2": [0, 0, 1, 0, 1, 0, 0],
        "veronese-p2-p5": [0, 0, 0, 1, 0, 0, 0],
    }
    for name, want in cases.items():
        report = predict(PROFILES[name].profile, name)
        assert list(report.critical_dims) == want, name


def test_predict_quotient_copies_and_simplicity():
    quotients = {
        "p1": 0,
        "elliptic-p2": 2,
        "quartic-p2": 6,
        "twisted-cubic": 0,
        "quadric-p3": 1,
        "cubic-surface-p3": 6,
        "veronese-p2-p5": 0,
    }
    for name, want in quotients.items():
        report = predict(PROFILES[name].profile, name)
        assert report.quotient_e_copies == want, name
        assert report.simple == (want == 0), name


def test_predict_segre_off_critical_copy():
    report = predict(PROFILES["segre-p1xp2"].profile, "segre-p1xp2")
    assert report.e_copies[3] == 1
    assert report.statuses[3] == "E^1"
    assert not report.ogus_vanishing


def test_degeneration_identity_all_profiles():
    """The critical de Rham table equals a mirror slice of the cone homology.

    predict() asserts this internally; recompute both sides here so the test
    does not lean on the library's own cross-check.
    """
    for entry in PROFILES.values():
        profile = entry.profile
        n, r = profile.n, profile.r
        h = cone_homology(profile)
        report = predict(profile, entry.name)
        for j, dim in enumerate(report.critical_dims):
            mirror = 2 * n + 2 - j - r
            expected = h[mirror] if 0 <= mirror < len(h) else 0
            assert dim == expected, (entry.name, j)


def test_e_copy_formula_against_cone_homology():
    # away from the critical index, H^i is E^(m_i); the multiplicity follows the
    # Betti differences below i = n and vanishes from i = n on, and either way
    # it mirrors the reduced cone homology in degree n + 1 - i
    for entry in PROFILES.values():
        profile = entry.profile
        n, r = profile.n, profile.r
        h = cone_homology(profile)
        report = predict(profile, entry.name)
        for i, m in report.e_copies.items():
            assert r < i <= n + 1
            if i < n:
                assert m == profile.b(n - i) - profile.b(n - i - 2), (entry.name, i)
            else:
                assert m == 0, (entry.name, i)
            mirror = n + 1 - i
            h_val = h[mirror] if 0 <= mirror < len(h) else 0
            assert m == h_val, (entry.name, i)


def test_hypersurface_catalog_profiles_are_registered():
    for entry in HYPERSURFACES.values():
        assert entry.profile_name in PROFILES
