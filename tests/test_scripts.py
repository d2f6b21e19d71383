import importlib.util
from pathlib import Path

from qvisolve.csvio import read_compare_csv, read_sweep_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_feasibility_sweep_script(tmp_path, capsys):
    script = load_script("run_feasibility_sweep")
    assert script.main(["--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("feasible cells: 0") == 2
    csvs = sorted(tmp_path.glob("feasibility_*.csv"))
    assert len(csvs) == 2
    for path in csvs:
        rows = read_sweep_csv(path)["rows"]
        assert len(rows) == 120
        assert min(row["f_lipschitz"] for row in rows) >= 2.0


def test_figure_comparison_script(tmp_path, capsys):
    script = load_script("run_figure_comparison")
    out = tmp_path / "c.csv"
    assert script.main(["--output", str(out)]) == 0
    variants = read_compare_csv(out)["variants"]
    assert sorted(variants) == ["extragradient", "gradient_projection", "tseng"]
    for data in variants.values():
        assert data["residual"][-1] <= 1e-10
    assert f"wrote {out}" in capsys.readouterr().out
