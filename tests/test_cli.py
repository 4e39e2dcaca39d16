import csv
import io
import json

import pytest

from struveradii.cli import main

BESSEL_ARGS = ["--q", "1", "--p", "0", "--b", "2", "--c", "1", "--delta", "1"]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_radius_example(capsys):
    code, out = run_cli(
        capsys, "radius", "--kind", "starlike", "--norm", "g", "--alpha", "0",
        *BESSEL_ARGS, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1"
    assert record["command"] == "radius"
    assert float(record["results"]["value"]) == pytest.approx(
        1.8411837813406593, abs=1e-9)
    assert int(record["diagnostics"]["iterations"]) > 0


def test_bounds_example(capsys):
    code, out = run_cli(
        capsys, "bounds", "--family", "h-starlike", "--k", "1",
        *BESSEL_ARGS, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert float(record["results"]["lower"]) == pytest.approx(4.0, rel=1e-12)
    assert float(record["results"]["upper"]) == pytest.approx(8.0, rel=1e-12)


def test_eval_and_zeros(capsys):
    code, out = run_cli(capsys, "eval", "--z", "2", *BESSEL_ARGS, "--format", "json")
    assert code == 0
    assert float(json.loads(out)["results"]["value"]) == pytest.approx(
        0.5767248077568734, rel=1e-10)

    code, out = run_cli(
        capsys, "zeros", "--family", "w", "--count", "2", *BESSEL_ARGS,
        "--format", "json")
    assert code == 0
    zeros = [float(z) for z in json.loads(out)["results"]["zeros"]]
    assert zeros[0] == pytest.approx(3.8317059702075123, abs=1e-9)
    assert zeros[1] == pytest.approx(7.0155866698156188, abs=1e-9)


def test_eval_normalized_flag(capsys):
    code, out = run_cli(
        capsys, "eval", "--z", "0.001", "--norm", "g", *BESSEL_ARGS,
        "--format", "json")
    assert code == 0
    assert float(json.loads(out)["results"]["value"]) / 0.001 == pytest.approx(
        1.0, abs=1e-6)
    code, _ = run_cli(
        capsys, "eval", "--z", "1", "--norm", "g", "--deriv", "1", *BESSEL_ARGS)
    assert code == 2


def test_determinism_and_roundtrip(capsys):
    args = ["radius", "--kind", "convex", "--norm", "h", "--alpha", "0.25",
            "--q", "2", "--p", "0.5", "--b", "1", "--c", "2", "--delta", "0.5",
            "--format", "json"]
    code, out1 = run_cli(capsys, *args)
    assert code == 0
    code, out2 = run_cli(capsys, *args)
    assert out1 == out2

    record = json.loads(out1)
    echoed = record["params"]
    rebuilt = [
        "radius", "--kind", echoed["kind"], "--norm", echoed["norm"],
        "--alpha", repr(float(echoed["alpha"])),
        "--q", str(echoed["q"]), "--p", repr(float(echoed["p"])),
        "--b", repr(float(echoed["b"])), "--c", repr(float(echoed["c"])),
        "--delta", repr(float(echoed["delta"])), "--format", "json",
    ]
    code, out3 = run_cli(capsys, *rebuilt)
    assert code == 0
    assert out3 == out1


def test_csv_json_parity(capsys):
    args = ["bounds", "--family", "g-convex", "--k", "2",
            "--q", "1", "--p", "0.5", "--b", "2", "--c", "1", "--delta", "1"]
    _, json_out = run_cli(capsys, *args, "--format", "json")
    _, csv_out = run_cli(capsys, *args, "--format", "csv")
    record = json.loads(json_out)
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert len(rows) == 2
    table = dict(zip(rows[0], rows[1]))
    assert table["results.lower"] == record["results"]["lower"]
    assert table["results.upper"] == record["results"]["upper"]
    assert table["params.q"] == "1"


def test_text_format_default(capsys):
    code, out = run_cli(capsys, "eval", "--z", "1", *BESSEL_ARGS)
    assert code == 0
    assert "results.value = " in out


def test_usage_errors(capsys):
    assert main(["radius", "--kind", "starlike", "--norm", "g"]) == 2  # missing params
    assert main(["nonsense"]) == 2
    # invalid parameter values parse but fail validation
    code, _ = run_cli(capsys, "eval", "--z", "1", "--q", "1", "--p", "-2",
                      "--b", "2", "--c", "1", "--delta", "1")
    assert code == 2
    # alpha out of range
    code, _ = run_cli(capsys, "radius", "--kind", "starlike", "--norm", "f",
                      "--alpha", "1.0", *BESSEL_ARGS)
    assert code == 2


def test_numerical_error_exit_code(capsys):
    code = main(["zeros", "--family", "w", "--count", "64",
                 "--q", "3", "--p", "0.5", "--b", "1", "--c", "0.0001",
                 "--delta", "1"])
    assert code == 3


def test_bounds_beyond_double_range_exit_code(capsys):
    code = main(["bounds", "--family", "g-convex", "--k", "2",
                 "--q", "1", "--p", "0", "--b", "2", "--c", "1e200",
                 "--delta", "1"])
    assert code == 3


def test_verify_bessel_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "bessel", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert int(record["results"]["failed"]) == 0
    assert all(c["status"] == "pass" for c in record["results"]["checks"])


def test_verify_with_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"q": 1, "p": 0.0, "b": 2.0, "c": 1.0, "delta": 1.0},
        {"q": 2, "p": 0.5, "b": 1.0, "c": 2.0, "delta": 0.5},
    ]))
    code, out = run_cli(capsys, "verify", "--suite", "interlacing",
                        "--grid", str(grid))
    assert code == 0
    assert "[PASS]" in out

    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["verify", "--suite", "interlacing", "--grid", str(empty)]) == 2


def test_verify_count_reaches_interlacing(tmp_path, capsys):
    # Only 28 zeros of W lie below the scan limit at this point, so 29
    # must fail with a numerical error while 5 pass.
    grid = tmp_path / "sparse.json"
    grid.write_text(json.dumps([
        {"q": 3, "p": 0.5, "b": 1.0, "c": 1e-4, "delta": 1.0},
    ]))
    args = ["verify", "--suite", "interlacing", "--grid", str(grid)]
    code, _ = run_cli(capsys, *args, "--count", "29")
    assert code == 3
    code, out = run_cli(capsys, *args, "--count", "5")
    assert code == 0
    assert "[PASS]" in out
