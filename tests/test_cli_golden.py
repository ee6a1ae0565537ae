"""Command-line output against committed golden documents.

Each case runs through `main(argv)` and must exit with its recorded code
and reproduce its golden stdout: keys, strings, ints and bools exactly,
floats within 1e-12 (relative or absolute), so that a one-ulp libm
difference on another host does not fail.  CSV documents are compared
line by line and field by field the same way.  A golden changes only
together with an intended change of the output.
"""

import json
import math
import re
from pathlib import Path

import pytest

from halfline_bethe.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12

# (golden file, exit code, argv): the README commands, then paths the runner
# takes for the witness document, CSV, other sectors and representations.
CASES = [
    ("consistency_pdp_regular.json", 0,
     "consistency --model pdp --rep regular --N 3 --samples 200 --seed 0"),
    ("build_delta.json", 0, "build --model delta --N 2 --k 1.1,2.3"),
    ("verify_boundary_delta.json", 0,
     "verify boundary --model delta --N 3 --sector ++ --probes 20"),
    ("verify_duality.json", 0, "verify duality --N 2 --c1 1.0 --c2 2.0 --points 20"),
    ("verify_eigen_pdp.json", 0, "verify eigen --model pdp --N 2 --sector mm --h 1e-4"),
    ("scatter_delta.csv", 0,
     "scatter --model delta --parity even --k 1.0 --c 2.0 --v0 1e3:1e9:7"),
    ("reps.json", 0, "reps --N 3"),
    ("build_pdp_regular_inconsistent.json", 1, "build --model pdp --N 3 --rep regular"),
    ("build.csv", 0, "build --N 2 --k 1.1,2.3 --format csv"),
    ("verify_boundary_pdp_mm.json", 0,
     "verify boundary --model pdp --N 3 --sector mm --probes 20"),
    ("verify_boundary_delta_regular.json", 0,
     "verify boundary --model delta --N 3 --rep regular --probes 5"),
    ("scatter_pdp_json.json", 0,
     "scatter --model pdp --parity odd --k 1 --lambda 0.5 --format json"),
    ("build_pdp_n4_mm.csv", 0, "build --model pdp --N 4 --sector mm --format csv"),
]


def assert_matches(got, want, where="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL), (
            f"{where}: {got!r} != {want!r}"
        )
        return
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def csv_field(token: str):
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def csv_fields(text: str) -> list[list]:
    return [
        [csv_field(token) for token in re.split(r"[,\s=\[\]]+", line) if token]
        for line in text.splitlines()
    ]


@pytest.mark.parametrize("golden, code, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(golden, code, argv, capsys):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    want = (GOLDEN / golden).read_text(encoding="utf-8")
    if golden.endswith(".json"):
        assert_matches(json.loads(out), json.loads(want))
    else:
        assert_matches(csv_fields(out), csv_fields(want))


def test_sector_build_csv_is_bit_exact(capsys):
    # a sector table is made of IEEE products and quotients only (no libm
    # call), and the CSV prints each entry with repr, so the walk must
    # reproduce every digit
    assert main("build --model pdp --N 4 --sector mm --format csv".split()) == 0
    want = (GOLDEN / "build_pdp_n4_mm.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_float_comparison_tolerates_one_ulp_only():
    assert_matches([1.0, {"a": 0.1}], [math.nextafter(1.0, 2.0), {"a": 0.1}])
    with pytest.raises(AssertionError):
        assert_matches([1.0], [1.0 + 1e-9])
    with pytest.raises(AssertionError):
        assert_matches([1], [1.0])
    with pytest.raises(AssertionError):
        assert_matches(csv_fields("0,1.0"), csv_fields("1,1.0"))
