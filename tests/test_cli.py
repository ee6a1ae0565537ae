"""Exit codes, document structure, and determinism of the command line."""

import json

import pytest

from halfline_bethe import cli
from halfline_bethe.cli import main
from halfline_bethe.errors import BoundaryPointError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_consistency_delta_regular_passes(capsys):
    code, doc = run_json(
        capsys, "consistency", "--model", "delta", "--N", "3",
        "--rep", "regular", "--samples", "20", "--seed", "7",
    )
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "consistency"
    assert doc["config"]["seed"] == 7
    assert doc["overall_ok"] is True
    names = [r["relation"] for r in doc["operator_relations"]]
    assert names == ["unitarity", "commuting", "braid", "reflection"]


def test_consistency_pdp_regular_fail_as_expected_is_success(capsys):
    code, doc = run_json(
        capsys, "consistency", "--model", "pdp", "--N", "3",
        "--rep", "regular", "--samples", "20",
    )
    assert code == 0
    braid = [r for r in doc["operator_relations"] if r["relation"] == "braid"][0]
    assert braid["outcome"] == "fail"
    assert braid["expected"] == "fail"
    assert braid["ok"] is True
    assert braid["max_residual"] > 0.1


def test_consistency_output_is_deterministic(capsys):
    args = ("consistency", "--model", "delta", "--N", "2", "--samples", "10")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_build_with_explicit_momenta(capsys):
    code, doc = run_json(
        capsys, "build", "--model", "delta", "--N", "2",
        "--sector", "++", "--k", "1.1,2.3",
    )
    assert code == 0
    assert doc["group_order"] == 8
    assert doc["energy"] == pytest.approx(1.1**2 + 2.3**2)
    identity_row = doc["elements"][0]
    assert identity_row["word"] == []
    assert identity_row["coefficient"] == [1.0, 0.0]


def test_build_pdp_regular_reports_witness(capsys):
    code, doc = run_json(capsys, "build", "--model", "pdp", "--N", "3", "--rep", "regular")
    assert code == 1
    err = doc["error"]
    assert err["type"] == "inconsistency"
    assert err["residual"] > 0.1
    words = {tuple(err["existing_word"]), tuple(err["conflicting_word"])}
    assert words == {("T1", "T2", "T1"), ("T2", "T1", "T2")}


def test_build_csv_format(capsys):
    code, out = run(
        capsys, "build", "--N", "2", "--sector", "++", "--k", "1.1,2.3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "p_index,re,im" in lines
    data = [l for l in lines if not l.startswith("#") and not l.startswith("p_index")]
    assert len(data) == 8
    assert data[0] == "0,1.0,0.0"


def test_build_rejects_wrong_momentum_count(capsys):
    with pytest.raises(SystemExit) as info:
        main(["build", "--N", "3", "--k", "1.0,2.0"])
    assert info.value.code == 2


def test_build_rejects_degenerate_momenta(capsys):
    with pytest.raises(SystemExit) as info:
        main(["build", "--N", "2", "--k", "1.0,-1.0"])
    assert info.value.code == 2


def test_verify_boundary(capsys):
    code, doc = run_json(
        capsys, "verify", "boundary", "--model", "delta", "--N", "2",
        "--sector", "++", "--probes", "5",
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["max_residual"] < 1e-10
    assert doc["geometry_errors"] == 0
    kinds = {row["kind"] for row in doc["rows"]}
    assert kinds == {"pair", "wall", "origin"}
    assert all("residual_match" in row for row in doc["rows"])


def test_verify_boundary_sector_aliases(capsys):
    code, doc = run_json(
        capsys, "verify", "boundary", "--model", "pdp", "--N", "2",
        "--sector", "mm", "--probes", "5",
    )
    assert code == 0
    assert doc["config"]["representation"] == "--"


def test_verify_boundary_unknown_sector(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "boundary", "--sector", "+x"])
    assert info.value.code == 2


def test_verify_duality(capsys):
    code, doc = run_json(
        capsys, "verify", "duality", "--N", "2", "--c1", "1", "--c2", "2",
        "--points", "10",
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["max_table_diff"] <= 1e-12
    assert doc["max_point_diff"] <= 1e-12


def test_verify_eigen(capsys):
    code, doc = run_json(
        capsys, "verify", "eigen", "--model", "delta", "--N", "2",
        "--sector", "++", "--h", "1e-4",
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["relative_residual"] < 1e-6


def test_scatter_csv(capsys):
    code, out = run(
        capsys, "scatter", "--model", "delta", "--parity", "even",
        "--k", "1", "--c", "2", "--v0", "1e3:1e9:7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("# fitted_slope=")
    slope = float(lines[-1].split("=")[1])
    assert slope == pytest.approx(-0.5, abs=0.05)
    header = [l for l in lines if l == "v0,re_b,im_b,abs_dev"]
    assert len(header) == 1
    data = [l for l in lines if not l.startswith("#") and "," in l and l != header[0]]
    assert len(data) == 7


def test_scatter_json(capsys):
    code, doc = run_json(
        capsys, "scatter", "--model", "pdp", "--parity", "odd",
        "--k", "1", "--lambda", "0.5", "--format", "json",
    )
    assert code == 0
    assert doc["ok"] is True
    assert len(doc["rows"]) == 7
    assert doc["limit"] == pytest.approx([0.0, -1.0], abs=1e-12)


def test_scatter_bad_grid(capsys):
    with pytest.raises(SystemExit) as info:
        main(["scatter", "--v0", "banana"])
    assert info.value.code == 2


def test_reps(capsys):
    code, doc = run_json(capsys, "reps", "--N", "3")
    assert code == 0
    assert doc["ok"] is True
    assert doc["group_order"] == 48
    assert doc["sum_of_squares"] == 48
    assert len(doc["orbits"]) == 4


def test_bad_particle_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["consistency", "--N", "0"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["consistency", "--N", "9"])
    assert info.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "reps", "--N", "2", "--out", str(target))
    assert code == 0
    assert str(target) in out
    doc = json.loads(target.read_text())
    assert doc["group_order"] == 8


def test_outdir_env_var_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HALFLINE_BETHE_OUTDIR", str(tmp_path))
    code, _ = run(capsys, "reps", "--N", "2", "--out", "report.json")
    assert code == 0
    assert (tmp_path / "report.json").exists()


def test_out_files_are_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "consistency", "--N", "2", "--samples", "5", "--out", str(a))
    run(capsys, "consistency", "--N", "2", "--samples", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        # non-finite or non-positive inputs
        "verify boundary --N 2 --k nan,1.0",
        "verify boundary --N 2 --k 1.0,inf",
        "build --N 2 --k 1e200,2e200",  # finite momenta whose energy overflows
        "build --N 2 --k 1e308,1.5e308",
        "verify boundary --N 2 --c1 inf",
        "verify boundary --c1 0",
        "build --model pdp --lambda2 nan",
        "verify duality --c1 0",
        "verify eigen --h 0",
        "verify eigen --h 1e-300",
        "scatter --c inf",
        *(f"{sub} --tol {tol}"
          for sub in ("consistency", "verify boundary", "verify duality", "verify eigen")
          for tol in ("nan", "inf", "-1")),
        # runs that would check nothing
        "consistency --samples 0",
        "consistency --samples -3",
        "verify boundary --rep regular --probes 0",
        "verify duality --points 0",
        # malformed or out-of-range flags
        "build --N 2 --k 1.0,1.0",
        "build --N 6",
        "reps --N 0",
        "verify eigen --N 2 --h 5",
        "scatter --v0 1e3:1e9:1",
    ],
)
def test_invalid_input_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "error", [ValueError("shape mismatch"), BoundaryPointError("point on a facet")]
)
def test_internal_value_error_is_not_a_usage_error(error, monkeypatch):
    # Only InputError means bad flags; any other error is a defect and keeps
    # its traceback instead of being reported as exit 2.
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "boundary_sweep", fail)
    with pytest.raises(type(error)):
        main(["verify", "boundary", "--N", "2"])
