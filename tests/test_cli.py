import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import kernel_calls
from lyaprec import cli as cli_mod
from lyaprec import variational
from lyaprec.cli import main
from lyaprec.errors import AccuracyError, NumericsError

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    (
        "lyapunov_small.csv",
        ["lyapunov", "--rho", "0.5", "--beta", "0,2", "--q", "1", "--format", "csv"],
    ),
    (
        "lyapunov_small.json",
        ["lyapunov", "--rho", "0.5", "--beta", "0,2", "--q", "1", "--format", "json"],
    ),
    # one beta with three branches: no fold polished at (0.1, 5.7); at
    # (0.05, 7.0048634834), just inside the window, the dip is polished
    (
        "lyapunov_fold.csv",
        ["lyapunov", "--rho", "0.1", "--beta", "5.7", "--format", "csv"],
    ),
    (
        "lyapunov_dip.csv",
        ["lyapunov", "--rho", "0.05", "--beta", "7.0048634834", "--format", "csv"],
    ),
    ("bigf_small.csv", ["bigf", "--rho", "0.5", "--points", "5", "--format", "csv"]),
    (
        "meanfield_small.csv",
        ["meanfield", "--rho", "0.1", "--beta", "0,7", "--format", "csv"],
    ),
    (
        "appendixb_small.json",
        [
            "appendixb",
            "--rho", "0.05",
            "--a", "5,50",
            "--cubic-beta", "20,40",
            "--format", "json",
        ],
    ),
    (
        "simulate_exact.json",
        [
            "simulate",
            "--n", "10",
            "--rho", "0.2",
            "--beta", "1.0",
            "--exact",
            "--format", "json",
        ],
    ),
    (
        "simulate_mc.json",
        [
            "simulate",
            "--n", "50",
            "--rho", "0.2",
            "--beta", "2.0",
            "--paths", "2000",
            "--seed", "7",
            "--format", "json",
        ],
    ),
    ("critical.json", ["critical", "--format", "json"]),
    (
        "phase_small.csv",
        ["phase", "--rho", "0.04,0.07,0.1", "--format", "csv"],
    ),
    (
        "phase_small.json",
        ["phase", "--rho", "0.04,0.07,0.1", "--format", "json"],
    ),
    (
        "exponent_meanfield.json",
        ["exponent", "--model", "meanfield", "--points", "8", "--format", "json"],
    ),
]


def _run(argv, tmp_path, name):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs(name, argv, tmp_path):
    code, data = _run(argv, tmp_path, name)
    assert code == 0
    assert data == (GOLDEN / name).read_bytes()


def test_stdout_matches_file_output(capsys):
    assert main(["meanfield", "--rho", "0.1", "--beta", "0,7"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "meanfield_small.csv").read_bytes()


def test_csv_line_endings(tmp_path):
    _, data = _run(["bigf", "--rho", "0.2", "--points", "3"], tmp_path, "b.csv")
    assert data.count(b"\r\n") == 4  # header + 3 rows
    assert b"\n\n" not in data


def test_json_envelope(tmp_path):
    _, data = _run(
        ["bigf", "--rho", "0.2", "--points", "3", "--format", "json"],
        tmp_path,
        "b.json",
    )
    doc = json.loads(data)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "bigf"
    assert {len(r) for r in doc["rows"]} == {len(doc["columns"])}


def test_lyapunov_rows_respect_bounds(tmp_path):
    _, data = _run(
        [
            "lyapunov",
            "--rho", "0.1,0.4",
            "--beta", "1,5",
            "--q", "2",
            "--format", "json",
        ],
        tmp_path,
        "l.json",
    )
    doc = json.loads(data)
    col = {c: i for i, c in enumerate(doc["columns"])}
    for row in doc["rows"]:
        lam = row[col["lambda"]]
        assert row[col["lower_bound"]] - 1e-9 <= lam <= row[col["upper_bound"]] + 1e-9
        assert row[col["meanfield_lambda"]] <= lam + 1e-9


def test_exact_at_budget_edge(tmp_path):
    # the largest n the budget admits at q = 1; paths_used = 2^11584 has
    # 3488 digits, inside the 4300-digit int/str conversion limit
    code, data = _run(["simulate", "--n", "11584", "--exact"], tmp_path, "e.json")
    assert code == 0
    assert json.loads(data)["estimate"]["paths_used"] == 2 ** 11584


def test_exit_codes(monkeypatch, capsys):
    assert main(["simulate", "--n", "11585", "--exact"]) == 3
    assert main(["simulate", "--n", "0"]) == 2
    assert main(["critical", "--rho-lo", "0.3", "--rho-hi", "0.2"]) == 2
    assert main(["critical", "--format", "csv"]) == 2
    assert main(["lyapunov", "--rho", "abc"]) == 2
    # past beta = 2e17 the mean-field fold is still finite
    assert main(["lyapunov", "--rho", "0.1", "--beta", "1e18"]) == 0
    assert main(["meanfield", "--rho", "0.1", "--beta", "1e18"]) == 0
    # past beta = 1e170 the mean-field root is refined to rounding in beta
    assert main(["lyapunov", "--rho", "0.1", "--beta", "1e200"]) == 0
    assert main(["meanfield", "--rho", "0.1", "--beta", "1e200"]) == 0
    # at tiny rho the stationarity residual rounds far above 1e-12;
    # mf_lambda never refines the middle root
    assert main(["meanfield", "--rho", "7.130172008771756e-120",
                 "--beta", "759.080933562806"]) == 0
    # 2*beta and beta*(1+rho) overflow here; no product holds them
    assert main(["lyapunov", "--rho", "0.1", "--beta", "8.9e307"]) == 0
    assert main(["meanfield", "--rho", "0.1", "--beta", "1e308"]) == 0
    assert main(["nonsense"]) == 2
    # no CLT ratio at a zero target variance
    assert main(["simulate", "--clt", "--beta", "0"]) == 2
    # the Philox key holds a seed in [0, 2**64)
    assert main(["simulate", "--seed", "-1"]) == 2
    assert main(["simulate", "--clt", "--rho", "0", "--beta", "1"]) == 2
    monkeypatch.setenv("LYAPREC_THREADS", "abc")
    assert main(["simulate", "--n", "10", "--paths", "100"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("rho", ["0", "nan", "inf"])
def test_bigf_rejects_bad_amplitudes(capsys, rho):
    assert main(["bigf", "--rho", rho]) == 2
    assert capsys.readouterr().err == "error: rho must be a positive finite real\n"


def test_bigf_answers_at_tiny_amplitude(capsys):
    # 1 + rho rounds to 1, but the kernel keeps rho: finite values, no
    # warning, and each row is big_F at its printed a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bigf", "--rho", "1e-300", "--points", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "rho,a,F" and len(lines) == 6
    for line in lines[1:]:
        rho, a, F = (float(x) for x in line.split(","))
        assert rho == 1e-300
        assert F == pytest.approx(variational.big_F(a, rho), rel=4e-15, abs=0.0)


@pytest.mark.parametrize("argv,message", [
    (["--exact", "--rho", "inf"], "rho must be finite"),
    (["--exact", "--beta", "inf"], "beta must be a finite real >= 0"),
    (["--rho", "inf"], "rho must be finite"),
    (["--x0", "inf"], "x0 must be finite"),
    (["--noise", "constant", "--noise-value", "inf"], "noise value must be finite"),
])
def test_simulate_refuses_non_finite_inputs(monkeypatch, capsys, argv, message):
    # refused before any path runs
    monkeypatch.setattr(cli_mod, "estimate_moment", None)
    monkeypatch.setattr(cli_mod, "exact_moment", None)
    assert main(["simulate", "--n", "10", "--paths", "100"] + argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_critical_with_narrow_bracket(tmp_path):
    code, data = _run(["critical", "--rho-lo", "0.1", "--rho-hi", "0.2",
                       "--format", "json"], tmp_path, "c.json")
    assert code == 0
    golden = json.loads((GOLDEN / "critical.json").read_bytes())
    assert json.loads(data)["rho_c"] == pytest.approx(golden["rho_c"], rel=1e-12)


def test_numerics_exit_code(monkeypatch, capsys):
    def boom(rc):
        raise NumericsError("synthetic failure")

    monkeypatch.setitem(cli_mod._DISPATCH, "meanfield", boom)
    assert main(["meanfield"]) == 4
    assert "synthetic failure" in capsys.readouterr().err


def test_numerics_error_names_q(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AccuracyError("forced", 1.0, 1.0)

    monkeypatch.setattr(variational, "_level_roots", fail)
    assert main(["lyapunov", "--rho", "0.3", "--beta", "1", "--q", "2"]) == 4
    assert capsys.readouterr().err == "error: root refinement at rho=0.3, beta=1.0, q=2: forced\n"


def test_lyapunov_default_grid_kernel_calls(monkeypatch, capsys):
    # one fold scan and one Newton solve per rho row, 26 calls in all; a
    # solve per (rho, beta) cell made 238 calls on this 4 x 9 grid
    codes = []
    assert kernel_calls(monkeypatch, lambda: codes.append(main(["lyapunov"]))) <= 36
    assert codes == [0]
    capsys.readouterr()


def test_shared_parser_matches_a_fresh_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho=0.5\nbeta=0,2\n")
    runs = (["nonsense"], ["lyapunov", "--config", str(cfg)], ["meanfield"])

    def outputs(fresh):
        cli_mod._build_parser.cache_clear()
        got = []
        for argv in runs:
            if fresh:
                cli_mod._build_parser.cache_clear()
            got.append((main(argv), capsys.readouterr()))
        return got

    shared = outputs(fresh=False)
    assert cli_mod._build_parser.cache_info().hits == 2
    assert [code for code, _ in shared] == [2, 0, 0]
    assert outputs(fresh=True) == shared


def _fresh_python(*args):
    env = dict(os.environ)
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=300)


def _python_m_lyaprec(*args):
    return _fresh_python("-m", "lyaprec", *args)


def test_module_entry_point():
    run = _python_m_lyaprec("lyapunov", "--rho", "0.5", "--beta", "0,2", "--q", "1",
                            "--format", "csv")
    assert run.returncode == 0
    assert run.stdout == (GOLDEN / "lyapunov_small.csv").read_bytes()
    assert _python_m_lyaprec("nonsense").returncode == 2


# exits 1 and names the first few scipy modules loaded, if any
_EXIT_ON_SCIPY = ("sys.exit(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')[:5]"
                  " or None)")


def test_import_leaves_scipy_unloaded():
    # only the finite-difference endpoint loads scipy (scipy.optimize), on
    # first use
    run = _fresh_python("-c", "import sys, lyaprec\n" + _EXIT_ON_SCIPY)
    assert run.returncode == 0, run.stderr.decode()


def test_subcommands_at_defaults_leave_scipy_unloaded():
    code = ("import sys\nfrom lyaprec.cli import main\n"
            "for command in ('lyapunov', 'bigf', 'phase', 'meanfield', 'simulate', 'appendixb'):\n"
            "    assert main([command]) == 0, command\n" + _EXIT_ON_SCIPY)
    run = _fresh_python("-c", code)
    assert run.returncode == 0, run.stderr.decode()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho=0.25\nbeta=0\n# comment line\n")
    _, data = _run(["lyapunov", "--config", str(cfg)], tmp_path, "a.csv")
    assert b"\r\n0.25,0," in data
    _, data = _run(
        ["lyapunov", "--config", str(cfg), "--rho", "0.5"], tmp_path, "b.csv"
    )
    assert b"\r\n0.5,0," in data
    assert b"0.25," not in data


def test_threads_do_not_change_output(monkeypatch, tmp_path):
    base = [
        "simulate",
        "--n", "20",
        "--rho", "0.2",
        "--beta", "1.0",
        "--paths", "3000",
        "--seed", "4",
    ]
    code1, d1 = _run(base, tmp_path, "t1.json")
    code2, d2 = _run(base + ["--threads", "4"], tmp_path, "t2.json")
    monkeypatch.setenv("LYAPREC_THREADS", "3")
    code3, d3 = _run(base, tmp_path, "t3.json")
    assert code1 == code2 == code3 == 0
    assert d1 == d2 == d3


def test_rerun_is_byte_identical(tmp_path):
    argv = ["phase", "--rho", "0.05,0.08", "--format", "csv"]
    _, d1 = _run(argv, tmp_path, "p1.csv")
    _, d2 = _run(argv, tmp_path, "p2.csv")
    assert d1 == d2
