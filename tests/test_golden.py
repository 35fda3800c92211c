"""The packaged presets reproduce the committed golden outputs.

``tests/golden/`` holds the CSV and SVG files written by ``preset fig2`` and
``preset fig3``.  Header and text cells must match exactly; numeric cells may
move by at most 1e-12 relative, so a refactor that only reorders floating
point operations still passes while any change of the physics does not.
The SVG files must match byte for byte.
"""

import math
from pathlib import Path

import pytest

from cvqkd_fading import cli

GOLDEN = Path(__file__).parent / "golden"


def cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        x, y = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_reproduces_golden_csv(tmp_path, capsys, preset):
    csv_path = tmp_path / f"{preset}.csv"
    code = cli.main(
        ["preset", preset, "--csv", str(csv_path), "--svg", str(tmp_path / f"{preset}.svg")]
    )
    capsys.readouterr()
    assert code == 0
    got = csv_path.read_text(encoding="utf-8").splitlines()
    want = (GOLDEN / f"{preset}.csv").read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0] == cli.CSV_HEADER
    assert len(got) == len(want)
    for lineno, (got_line, want_line) in enumerate(zip(got, want), 1):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells), f"line {lineno}"
        for got_cell, want_cell in zip(got_cells, want_cells):
            assert cells_match(got_cell, want_cell), f"line {lineno}: {got_line!r} != {want_line!r}"


@pytest.mark.parametrize(
    "preset, names",
    [("fig2", ["fig2_t_min_rate_bits.svg", "fig2_t_mean_rate_bits.svg"]), ("fig3", ["fig3.svg"])],
)
def test_preset_reproduces_golden_svgs(tmp_path, capsys, preset, names):
    # a value that moves by 1e-12 moves its pixel by about 1e-10, far below
    # the 0.01 px the coordinates are written to, so every byte must match
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / f"{preset}.svg"
    code = cli.main(["preset", preset, "--csv", str(csv_path), "--svg", str(svg_path)])
    capsys.readouterr()
    assert code == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
