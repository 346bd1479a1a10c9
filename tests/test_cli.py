import json
import math

import numpy as np
import pytest

from symrkn.cli import main
from symrkn.tableau import RknTableau, load_tableau, named_tableau, save_tableau


def _rows(out: str):
    lines = [ln for ln in out.strip().splitlines() if ln]
    header = lines[0]
    data = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    trailers = [ln for ln in lines[1:] if ln.startswith("#")]
    return header, data, trailers


def test_derive_named_method(capsys):
    assert main(["derive", "--method", "rkn-iiib"]) == 0
    out = capsys.readouterr().out
    assert "stages: 3" in out
    assert "symmetric: yes" in out
    assert "symplectic: no" in out
    assert "xi=4 eta=1 zeta=3" in out
    assert "order_bound: 4" in out


def test_derive_writes_interchange_file(tmp_path, capsys):
    path = tmp_path / "iiib.json"
    assert main(["derive", "--method", "rkn-iiib", "--out", str(path)]) == 0
    capsys.readouterr()
    back = load_tableau(path)
    ref = named_tableau("rkn-iiib")
    assert np.all(back.a_bar == ref.a_bar)
    assert back.label == "rkn-iiib"


def test_derive_family_path(capsys):
    code = main(
        [
            "derive", "--family", "order6", "--alpha", "0.0",
            "--quadrature", "gauss", "--stages", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "symplectic: yes" in out
    assert "order_bound: 6" in out
    assert "xi=6 eta=3 zeta=3" in out


def test_derive_usage_errors(capsys):
    assert main(["derive", "--family", "order4", "--method", "diagsymp"]) == 1
    assert main(["derive"]) == 1
    assert main(["derive", "--family", "order4", "--alpha", "0.1",
                 "--quadrature", "lobatto", "--stages", "3"]) == 1
    assert main(["derive", "--family", "order2", "--alpha", "0.1"]) == 1
    assert main(["derive", "--family", "order2", "--alpha", "0.1",
                 "--quadrature", "gauss", "--stages", "11"]) == 1
    capsys.readouterr()


def test_check_exit_codes(tmp_path, capsys):
    good = tmp_path / "sym.json"
    main(["derive", "--method", "diagsymp", "--out", str(good)])

    bad = tmp_path / "asym.json"
    control = RknTableau(
        1, np.array([0.0]), np.array([[0.0]]), np.array([1.0]), np.array([1.0]),
        "control",
    )
    save_tableau(control, bad)

    junk = tmp_path / "junk.json"
    junk.write_text("{ not json")

    wrong = tmp_path / "wrong.json"
    wrong.write_text(good.read_text().replace("rkn-tableau/1", "rkn-tableau/2"))

    assert main(["check", str(good)]) == 0
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(junk)]) == 1
    assert main(["check", str(wrong)]) == 1
    assert main(["check", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_converge_csv_contract(capsys):
    code = main(
        [
            "converge", "--method", "rkn-iiib", "--problem", "harmonic",
            "--t-end", "1.6", "--h-list", "0.2,0.1,0.05",
        ]
    )
    assert code == 0
    header, data, trailers = _rows(capsys.readouterr().out)
    assert header == "method,h,error"
    assert [row[0] for row in data] == ["rkn-iiib"] * 3
    hs = [float(row[1]) for row in data]
    assert hs == [0.2, 0.1, 0.05]  # decreasing h, literals round-trip
    errs = [float(row[2]) for row in data]
    assert errs[0] > errs[1] > errs[2] > 0
    assert len(trailers) == 1
    tag, method, slope = trailers[0].split(",")
    assert tag == "# slope" and method == "rkn-iiib"
    assert 3.0 < float(slope) < 5.0


def test_converge_accepts_tableau_files(tmp_path, capsys):
    path = tmp_path / "mid.json"
    main(
        [
            "derive", "--family", "order2", "--alpha", "0.16666",
            "--quadrature", "gauss", "--stages", "1", "--out", str(path),
        ]
    )
    capsys.readouterr()
    code = main(
        [
            "converge", "--method", str(path), "--problem", "harmonic",
            "--t-end", "2.0", "--h-list", "0.2,0.1,0.05,0.025",
        ]
    )
    assert code == 0
    _, data, trailers = _rows(capsys.readouterr().out)
    assert data[0][0] == str(path)
    assert 1.6 < float(trailers[0].split(",")[2]) < 2.4


def test_converge_usage_errors(capsys):
    assert main(["converge", "--method", "rkn-iiib", "--h-list", ""]) == 1
    assert main(["converge", "--method", "no-such-method"]) == 1
    assert main(["converge", "--method", "rkn-iiib", "--h-list", "0.1,-0.2"]) == 1
    assert main(["converge"]) == 1  # --method is required
    capsys.readouterr()


def test_converge_divergence_exit(capsys):
    code = main(
        [
            "converge", "--method", "diagsymp", "--t-end", "10",
            "--h-list", "10.0,5.0",
        ]
    )
    assert code == 3
    _, data, trailers = _rows(capsys.readouterr().out)
    assert all(math.isnan(float(row[2])) for row in data)
    assert math.isnan(float(trailers[0].split(",")[2]))


@pytest.mark.parametrize(
    "span",
    [["--t-end", "0"], ["--t-end", "0.2", "--h-list", "0.2"]],
    ids=["zero-span", "single-h"],
)
def test_converge_degenerate_fit_is_an_error(span, capsys):
    # every row is finite but the slope cannot be fitted: a usage error,
    # as for drift, rather than a successful run with a nan slope
    assert main(["converge", "--method", "rkn-a", *span]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "rkn-a" in captured.err


def test_drift_csv_contract(tmp_path):
    out = tmp_path / "drift.csv"
    code = main(
        [
            "drift", "--method", "diagsymp", "--method", "rkn-iiib",
            "--t-end", "16", "--out", str(out),
        ]
    )
    assert code == 0
    header, data, trailers = _rows(out.read_text())
    assert header == "method,t,energy_error"
    diag = [row for row in data if row[0] == "diagsymp"]
    assert len(diag) == 11  # t0 plus every 10th of 100 steps
    times = [float(row[1]) for row in diag]
    assert times == sorted(times)
    assert times[0] == 0.0 and times[-1] == pytest.approx(16.0, abs=1e-12)
    assert float(diag[0][2]) == 0.0
    slopes = {ln.split(",")[1]: float(ln.split(",")[2]) for ln in trailers
              if ln.startswith("# drift_slope")}
    maxima = {ln.split(",")[1]: float(ln.split(",")[2]) for ln in trailers
              if ln.startswith("# max_abs")}
    assert set(slopes) == {"diagsymp", "rkn-iiib"}
    assert 0 < maxima["diagsymp"] < 5e-4
    assert maxima["rkn-iiib"] > maxima["diagsymp"]


def test_drift_usage_errors(capsys):
    assert main(["drift", "--method", "diagsymp", "--sample-every", "0"]) == 1
    assert main(["drift", "--method", "nope"]) == 1
    assert main(["drift", "--method", "diagsymp", "--problem", "kepler"]) == 1
    capsys.readouterr()


def test_top_level_exit_codes(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_emitted_floats_reparse_exactly(tmp_path):
    path = tmp_path / "o6.json"
    main(
        [
            "derive", "--family", "order6", "--alpha", "0.0",
            "--quadrature", "gauss", "--stages", "3", "--out", str(path),
        ]
    )
    doc = json.loads(path.read_text())
    from symrkn.quadrature import gauss_rule

    rule = gauss_rule(3)
    assert doc["c"] == rule.c.tolist()
    assert doc["b"] == rule.b.tolist()


def test_long_output_is_written_whole(tmp_path, capsys):
    # 2 x 6251 rows span several write calls; file and stdout agree line
    # for line, with no row split or merged at a call boundary
    out = tmp_path / "drift.csv"
    argv = ["drift", "--method", "diagsymp", "--method", "rkn-a",
            "--t-end", "1000", "--sample-every", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    text = out.read_text()
    assert main(argv) == 0
    assert capsys.readouterr().out == text
    lines = text.split("\n")
    assert lines[0] == "method,t,energy_error" and lines[-1] == ""
    rows = lines[1:-5]
    assert len(rows) == 2 * 6251 and len(lines[-5:-1]) == 4
    for k, row in enumerate(rows):
        method, t, e = row.split(",")
        assert method == ("diagsymp" if k < 6251 else "rkn-a")
        assert float(t) == pytest.approx(0.16 * (k % 6251), abs=1e-9)
        assert math.isfinite(float(e))
