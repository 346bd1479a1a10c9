import contextlib
import hashlib
import json
import math
import runpy
import sys
import time
import tracemalloc

import numpy as np
import pytest

from symrkn import cli, integrator
from symrkn.cli import main
from symrkn.errors import InvalidGridError, SymrknError
from symrkn.integrator import StepConfig, global_error_study, integrate
from symrkn.problems import kepler_2d, perturbed_pendulum
from symrkn.tableau import (
    RknTableau,
    dumps_tableau,
    load_tableau,
    named_tableau,
    save_tableau,
)


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


@pytest.mark.parametrize(
    "argv,code",
    [(["derive", "--method", "rkn-a"], 0), (["derive", "--method", "rkn-z"], 1)],
    ids=["ok", "usage"],
)
def test_the_module_run_as_a_script_exits_with_mains_code(argv, code, monkeypatch, capsys):
    # python -m symrkn.cli: the __main__ guard hands main's code to sys.exit
    monkeypatch.setattr(sys, "argv", ["symrkn", *argv])
    assert main(argv) == code
    want = capsys.readouterr()
    # the module runs afresh from its file, as under python -m, which
    # warns when it is imported already
    monkeypatch.delitem(sys.modules, "symrkn.cli")
    with pytest.raises(SystemExit) as info:
        runpy.run_module("symrkn.cli", run_name="__main__")
    assert info.value.code == code
    assert capsys.readouterr() == want


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


def test_tableau_text_nested_past_the_recursion_limit_is_one_error(tmp_path, capsys):
    doc = json.loads(dumps_tableau(named_tableau("diagsymp")))
    doc["a_bar"] = "@"
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc).replace('"@"', "[" * 5000 + "]" * 5000))
    for argv in (["check", str(deep)], ["converge", "--method", str(deep)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not valid tableau text") and err.count("\n") == 1


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


@pytest.mark.parametrize("method", ["rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b"])
def test_a_step_of_1e308_is_a_solver_failure(method, capsys, caplog):
    # h^2 overflows to inf, so the one step's stage solve fails: the run is
    # a nan cell and exit 3, with one warning, not an escaped exception
    argv = ["drift", "--method", method, "--h", "1e308", "--t-end", "1e308"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    _, data, trailers = _rows(captured.out)
    assert [row[1] for row in data] == ["0.0000000000000000e+00"]
    assert len(trailers) == 2 and all(x.endswith(",nan") for x in trailers)
    assert captured.err == ""
    warnings = [r.getMessage() for r in caplog.records if r.name == "symrkn"]
    assert len(warnings) == 1 and "diverged at step 1 of 1" in warnings[0]


def test_a_diverged_reference_writes_no_csv_and_exits_3(capsys):
    # the order-6 reference at min(h)/20 = 5.0 diverges in its first step,
    # before any row is written
    code = main(
        [
            "converge", "--problem", "pendulum", "--t-end", "200",
            "--h-list", "200,100", "--method", "rkn-a",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.endswith("error: reference integration diverged\n")


def test_converge_mixed_divergence_fits_the_finite_rows(capsys):
    code = main(
        [
            "converge", "--method", "diagsymp", "--t-end", "10",
            "--h-list", "10.0,5.0,0.1,0.05",
        ]
    )
    assert code == 3
    _, data, trailers = _rows(capsys.readouterr().out)
    errors = [float(row[2]) for row in data]
    assert [float(row[1]) for row in data] == [10.0, 5.0, 0.1, 0.05]
    assert all(math.isnan(e) for e in errors[:2])
    assert all(math.isfinite(e) and e > 0 for e in errors[2:])
    assert float(trailers[0].split(",")[2]) == pytest.approx(3.96, abs=0.01)


def test_study_fits_the_finite_rows_as_the_cli_does(capsys):
    hs = [10.0, 5.0, 0.1, 0.05]
    study = global_error_study(
        named_tableau("diagsymp"), perturbed_pendulum(), 10.0, hs
    )
    assert main(["converge", "--method", "diagsymp", "--t-end", "10",
                 "--h-list", ",".join(map(str, hs))]) == 3
    lines = capsys.readouterr().out.splitlines()
    rows = [ln.split(",") for ln in lines[1:-1]]
    cli_errors = np.array([float(row[2]) for row in rows])
    assert np.isnan(study.error[:2]).all()
    assert np.isfinite(study.error[2:]).all()
    assert study.error.tobytes() == cli_errors.tobytes()
    slope = float(lines[-1].split(",")[2])
    assert study.slope == slope and 3.9 < slope < 4.0


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


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [["converge", "--method", "rkn-a", "--problem", name]
     for name in ("pendulum", "harmonic", "kepler")]
    + [["drift", "--method", "rkn-a"]],
    ids=["converge-pendulum", "converge-harmonic", "converge-kepler", "drift"],
)
def test_non_finite_t_end_is_a_usage_error(argv, value, capsys):
    assert main([*argv, f"--t-end={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the span t_end - t0 must be finite, not {float(value)!r}\n"
    )


@pytest.mark.parametrize(
    "argv, step",
    [
        (["drift", "--method", "rkn-a", "--t-end", "1e308"], "step size 0.16"),
        (["converge", "--method", "rkn-a", "--h-list", "1e-320"],
         f"reference step size {1e-320 / 20.0!r}"),
        (["converge", "--method", "rkn-a", "--problem", "kepler", "--h-list", "1e-320"],
         "step size 1e-320"),
    ],
    ids=["drift", "converge-pendulum", "converge-kepler"],
)
def test_a_step_count_that_is_not_finite_is_a_usage_error(argv, step, capsys):
    # the pendulum's study fails first at its order-6 reference step, min(h)/20
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {step} is too small for the span ")
    assert captured.err.endswith(": the step count is not finite\n")


@pytest.mark.parametrize(
    "argv, step",
    [
        (["drift", "--method", "rkn-a", "--t-end", "1e300", "--sample-every", "1000000"],
         "step size 0.16"),
        (["converge", "--method", "rkn-a", "--h-list", "1e-300"], "reference step size 5e-302"),
    ],
    ids=["drift", "converge"],
)
def test_a_step_count_past_2_53_is_a_usage_error(argv, step, capsys):
    # a finite step count past 2**53 would run for ever
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {step} is too small for the span ")
    assert captured.err.endswith(" passes 2**53\n")


class _ReferenceRun(Exception):
    pass


def _no_reference_run():
    raise _ReferenceRun


def test_kepler_converge_never_runs_the_order6_reference(monkeypatch, capsys):
    monkeypatch.setattr(integrator, "reference_tableau", _no_reference_run)
    argv = ["converge", "--method", "rkn-a", "--problem", "kepler",
            "--t-end", "1.0", "--h-list", "0.1,0.05"]
    assert main(argv) == 0
    _, data, trailers = _rows(capsys.readouterr().out)
    assert len(data) == 2 and len(trailers) == 1
    study = global_error_study(named_tableau("rkn-a"), kepler_2d(), 1.0, [0.1, 0.05])
    assert study.reference == "exact"
    # the pendulum has no exact solution, so the patch is what stops it
    with pytest.raises(_ReferenceRun):
        main(["converge", "--method", "rkn-a", "--t-end", "1.0"])


@pytest.mark.parametrize("bad", ["0.003", "0.0003"])
def test_a_step_size_that_does_not_divide_the_span_fails_before_any_run(
    bad, monkeypatch, capsys
):
    # every step size is checked, largest first, before the pendulum's
    # order-6 reference or any row runs
    monkeypatch.setattr(integrator, "reference_state", lambda *a: _no_reference_run())
    monkeypatch.setattr(integrator, "integrate", lambda *a, **k: _no_reference_run())
    argv = ["converge", "--method", "rkn-a", "--method", "diagsymp",
            "--h-list", f"0.1,0.05,{bad}"]
    message = f"step size {bad} does not divide the span 10.0 into an integer number of steps"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    for reference in (None, (0.0, 2.5)):
        with pytest.raises(InvalidGridError, match=f"^{message}$"):
            global_error_study(
                named_tableau("rkn-a"), perturbed_pendulum(), 10.0,
                [float(bad), 0.05, 0.1], reference=reference,
            )


def test_kepler_converge_over_a_zero_span_is_an_error(capsys):
    # exact(t0) is the initial state to the bit, so every error is zero and
    # nothing can be fitted
    argv = ["converge", "--method", "rkn-a", "--problem", "kepler", "--t-end", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: method rkn-a: slope fit needs")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--method", "rkn-a"],
        ["converge", "--method", "rkn-a"],
        ["drift", "--method", "rkn-a"],
    ],
    ids=["derive", "converge", "drift"],
)
def test_a_library_error_that_is_no_value_error_exits_1(argv, monkeypatch, capsys):
    # main maps every library error but a stage divergence to 1, a
    # RuntimeError among them
    class Broken(SymrknError, RuntimeError):
        pass

    def broken(name):
        raise Broken(f"{name} is broken")

    monkeypatch.setattr(cli, "named_tableau", broken)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: rkn-a is broken\n"


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


# sha256 of the output bytes, recorded when the CSV was formatted whole
# before writing; writing it in chunks must not change a byte
GOLDEN = {
    "drift": (
        ["drift", "--method", "diagsymp", "--method", "rkn-a", "--h", "0.16",
         "--t-end", "160", "--sample-every", "1"],
        "54c4084a9bcc7d3e5eced75be4afc4e69d3707555e193a0eebffff67b8f4c360",
    ),
    # every 7th step: the last sample, step 1000, is off the schedule
    "drift-every-7": (
        ["drift", "--method", "diagsymp", "--method", "rkn-a", "--h", "0.16",
         "--t-end", "160", "--sample-every", "7"],
        "049ab0c9e4384c3cd487444a53b6d95bafca4f29d33378803d2ffecfc1eab0c4",
    ),
    # Kepler has an exact solution: errors against the exact orbit
    "converge": (
        ["converge", "--method", "diagsymp", "--method", "rkn-a", "--problem",
         "kepler", "--t-end", "2.0", "--h-list", "0.2,0.1,0.05"],
        "2af8dd7c45c1687adbbba0a371738ac720e550e0150b354fe722cad8ab08ecbd",
    ),
    # the pendulum has no exact solution: errors against the order-6 run
    "converge-pendulum": (
        ["converge", "--method", "diagsymp", "--method", "rkn-a",
         "--t-end", "2.0", "--h-list", "0.2,0.1,0.05"],
        "6b9b39e4188c24ea41046db5a4719b371276a4fde33cfd4a6bda5ae2003afcc2",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_csv_bytes_are_unchanged(command, tmp_path, capsys):
    argv, digest = GOLDEN[command]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _row_by_row(out_path, header, series, trailers):
    """The CSV writer as it was before chunks were formatted with one %:
    one f-string per row."""
    with (
        open(out_path, "w", encoding="utf-8") if out_path
        else contextlib.nullcontext(sys.stdout)
    ) as fh:
        fh.write(header + "\n")
        for name, xs, ys in series:
            fh.write("".join(f"{name},{x:.16e},{y:.16e}\n" for x, y in zip(xs, ys)))
        fh.write("".join(line + "\n" for line in trailers))


@pytest.mark.parametrize("command", ["drift", "converge"])
def test_a_method_path_with_percent_and_comma_writes_the_row_by_row_bytes(
    command, tmp_path, monkeypatch
):
    # the path is quoted as a CSV field, and its % signs are not formats
    path = tmp_path / "50%,a%s%%b%(x)d.json"
    save_tableau(named_tableau("rkn-a"), path)
    argv = {
        "drift": ["drift", "--t-end", "16", "--sample-every", "1"],
        "converge": ["converge", "--problem", "kepler", "--t-end", "2.0",
                     "--h-list", "0.2,0.1"],
    }[command] + ["--method", str(path), "--method", "diagsymp"]
    chunked, row_by_row = tmp_path / "chunked.csv", tmp_path / "row_by_row.csv"
    assert main(argv + ["--out", str(chunked)]) == 0
    monkeypatch.setattr(cli, "_write_csv", _row_by_row)
    assert main(argv + ["--out", str(row_by_row)]) == 0
    data = chunked.read_bytes()
    assert data == row_by_row.read_bytes()
    assert f'\n"{path}",'.encode() in data


@pytest.mark.parametrize(
    "argv",
    [
        # rkn-iiib diverges at step 2 and rkn-iiia at step 35, so their
        # time grids are prefixes of diagsymp's 10 001 samples (three
        # chunks), one written before it and one after; diagsymp twice
        # writes one grid twice
        ["drift", "--h", "2.0", "--t-end", "20000", "--sample-every", "1",
         "--method", "rkn-iiib", "--method", "diagsymp", "--method", "rkn-iiia",
         "--method", "diagsymp"],
        ["converge", "--problem", "kepler", "--t-end", "2.0", "--h-list", "0.2,0.1,0.05",
         "--method", "rkn-a", "--method", "diagsymp", "--method", "rkn-b"],
    ],
    ids=["drift-with-divergences", "converge"],
)
def test_shared_time_grids_write_the_row_by_row_bytes(argv, tmp_path, monkeypatch):
    chunked, row_by_row = tmp_path / "chunked.csv", tmp_path / "row_by_row.csv"
    code = main(argv + ["--out", str(chunked)])
    assert code == (3 if argv[0] == "drift" else 0)
    monkeypatch.setattr(cli, "_write_csv", _row_by_row)
    assert main(argv + ["--out", str(row_by_row)]) == code
    assert chunked.read_bytes() == row_by_row.read_bytes()


def test_the_csv_writer_formats_an_x_column_once(tmp_path, monkeypatch):
    # every chunk formats its ys, and its xs unless their column has the
    # bits of the x column formatted last
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 4)
    formatted, e16 = [], cli._e16
    monkeypatch.setattr(cli, "_e16", lambda xs: formatted.append(xs.tobytes()) or e16(xs))
    grid = np.arange(11) * 0.16
    signed = grid.copy()
    signed[0] = -0.0  # equal to grid, but not its bits
    columns = [
        ("a", grid, True),  # formatted and held, in chunks of 4, 4 and 3 rows
        ("b%s", grid.copy(), False),  # the held bits: none formatted
        ("c", grid[:8], True),  # a prefix, as a diverged run's, is formatted
        ("d", grid[:6], True),
        ("e", grid[:0], True),
        ("f", signed, True),
        ("g", grid, True),  # and grid again, after signed
    ]
    series = [(name, xs, np.linspace(-1.0, 1.0, len(xs)) * k)
              for k, (name, xs, _) in enumerate(columns)]
    expected = []
    for (_, xs, ys), (_, _, fresh) in zip(series, columns):
        for i in range(0, len(xs), 4):
            expected += [xs[i:i + 4].tobytes()] * fresh + [ys[i:i + 4].tobytes()]
    chunked, row_by_row = tmp_path / "chunked.csv", tmp_path / "row_by_row.csv"
    cli._write_csv(chunked, "method,t,y", series, ["# end"])
    assert formatted == expected
    _row_by_row(row_by_row, "method,t,y", series, ["# end"])
    assert chunked.read_bytes() == row_by_row.read_bytes()


def test_the_csv_writer_holds_texts_only_while_a_later_series_follows(
    tmp_path, monkeypatch
):
    # a chunk's rows are ~30 kB; the x column's texts, held for a later
    # series, are 24 bytes a row (0.5 MB for 20 001 rows), and a one-series
    # run holds none
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 512)
    xs = np.arange(20_001) * 0.16
    peaks = []
    for n in (1, 2):
        series = [(f"m{k}", xs, np.sin(xs)) for k in range(n)]
        out = tmp_path / f"{n}.csv"
        tracemalloc.start()
        try:
            cli._write_csv(out, "method,t,y", series, [])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        _row_by_row(tmp_path / "rows.csv", "method,t,y", series, [])
        assert out.read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert peaks[0] < 2e5 and peaks[1] > 24 * len(xs)


def test_drift_csv_has_the_trajectory_arrays(tmp_path):
    # .16e round-trips a float64, so the parsed columns are integrate's bits
    out = tmp_path / "drift.csv"
    argv = ["drift", "--method", "rkn-a", "--h", "0.16", "--t-end", "16",
            "--sample-every", "3", "--out", str(out)]
    assert main(argv) == 0
    _, data, _ = _rows(out.read_text())
    times = np.array([float(row[1]) for row in data])
    energy_error = np.array([float(row[2]) for row in data])
    traj = integrate(
        named_tableau("rkn-a"), perturbed_pendulum(), 16.0, StepConfig(h=0.16), 3
    )
    assert times.tobytes() == traj.times.tobytes()
    assert energy_error.tobytes() == traj.energy_error.tobytes()
