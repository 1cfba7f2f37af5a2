"""Command-line interface: exit codes, output discipline, the verify suites."""

import json

import pytest

from socle.catalog import PROFILES
from socle.cli import main
from socle.structure import predict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_everything(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("p1", "twisted-cubic", "segre-p1xp2", "quadric-p3"):
        assert name in out
    assert "built-in hypersurfaces:" in out
    assert "fermat-cubic-p2" in out

    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert {p["name"] for p in payload["profiles"]} == set(PROFILES)


def test_predict_table_elliptic(capsys):
    code, out, _ = run(capsys, "predict", "--catalog", "elliptic-p2")
    assert code == 0
    assert "betti numbers: [1, 2, 1]" in out
    assert "H^1: critical module" in out
    assert "quotient E^2" in out


def test_predict_json_matches_library(capsys):
    code, out, _ = run(capsys, "predict", "--catalog", "segre-p1xp2", "--format", "json")
    assert code == 0
    entry = PROFILES["segre-p1xp2"]
    want = predict(entry.profile, name="segre-p1xp2").to_json()
    assert json.loads(out) == want


def test_predict_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "predict", "--catalog", "nonsense")
    assert code == 2
    assert "unknown catalog entry" in err


def test_derham_e_module_table(capsys):
    code, out, _ = run(capsys, "derham", "--kind", "E", "--vars", "3")
    assert code == 0
    assert "dims (j = 0..3): [0, 0, 0, 1]" in out


def test_derham_monomial_json_is_deterministic(capsys):
    args = ("derham", "--kind", "loc", "--f", "x*y", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["dims"] == [1, 2, 1]
    assert payload["certificate"] == "stabilized"


def test_derham_rank_one(capsys):
    code, out, _ = run(capsys, "derham", "--kind", "rank-one", "--f", "x^2")
    assert code == 0
    assert "dims (j = 0..1): [0, 2]" in out
    assert "certificate: exact" in out


def test_derham_rank_one_default_precision_adapts_to_degree(capsys):
    code, out, err = run(capsys, "derham", "--kind", "rank-one", "--f", "x^10")
    assert code == 0, err
    assert "dims (j = 0..1): [0, 10]" in out


def test_derham_needs_kind_or_catalog(capsys):
    code, _, err = run(capsys, "derham")
    assert code == 2
    assert "--kind" in err


def test_derham_cutoff_cap(monkeypatch, capsys):
    monkeypatch.setenv("DERHAM_MAX_CUTOFF", "2")
    code, out, _ = run(capsys, "derham", "--kind", "loc", "--f", "x", "--vars", "1")
    assert code == 3  # capped run cannot certify stabilization
    assert "capped at 2 (requested 6)" in out
    assert "certificate: provisional" in out

    code, out, _ = run(
        capsys, "derham", "--kind", "loc", "--f", "x", "--vars", "1", "--format", "json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["capped"] is True
    assert payload["requested_cutoff"] == 6
    assert payload["certificate"] == "provisional"


def test_derham_rejects_bad_cap(monkeypatch, capsys):
    monkeypatch.setenv("DERHAM_MAX_CUTOFF", "abc")
    code, _, err = run(capsys, "derham", "--kind", "loc", "--f", "x", "--vars", "1")
    assert code == 2
    assert "DERHAM_MAX_CUTOFF" in err


def test_decompose_table(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "x*d0", "--f", "7 + 3*x + 5*x^3")
    assert code == 0
    assert "e_0 = 7" in out
    assert "b_1 = 3" in out
    assert "b_3 = 5/3" in out
    assert "residual: zero within the tracked box" in out


def test_decompose_json(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--p", "x*d0", "--f", "7 + 3*x + 5*x^3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["e"] == ["7"]
    assert payload["b"] == {"1": "3", "3": "5/3"}
    assert payload["operator"] == "x*d0"


def test_decompose_rejects_second_partial(capsys):
    code, _, err = run(capsys, "decompose", "--p", "d0 + d1", "--f", "x")
    assert code == 2
    assert err.strip()


def test_decompose_rejects_parse_garbage(capsys):
    code, _, err = run(capsys, "decompose", "--p", "x*d0", "--f", "x $ y")
    assert code == 2
    assert err.strip()


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "dims.json"
    args = ("derham", "--kind", "E", "--vars", "2", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    code = main([*args, "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    raw = target.read_bytes()
    assert raw.decode("utf-8") == out
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_verify_rank_one_json(capsys):
    code, out, _ = run(capsys, "verify", "rank-one", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["passed"] is True
    assert payload["suite"] == "rank-one"
    assert all(check["ok"] for check in payload["checks"])


def test_verify_decomposition_table(capsys):
    code, out, _ = run(capsys, "verify", "decomposition")
    assert code == 0
    assert "0 mismatches" in out
    assert "MISMATCH" not in out


def test_verify_monomial_counts(capsys):
    code, out, _ = run(capsys, "verify", "monomial")
    assert code == 0
    assert "14 checks, 0 mismatches" in out


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
