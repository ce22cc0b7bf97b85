"""End-to-end tests for the command line interface."""

import dataclasses
import io
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from concurrent.futures import Future

import numpy as np
import pytest

import curveflow.app
from curveflow.app import ConfigError, main, parse_config_file, parse_path_rule
from curveflow.geometry import PolygonalCurve, write_snapshot
from curveflow.metrics import DIAGNOSTICS_HEADER, write_diagnostics_csv
from curveflow.schemes import SchemeConfig, run


def write_config(path, text: str) -> str:
    path.write_text(textwrap.dedent(text), encoding="ascii")
    return str(path)


def usable_cpus(monkeypatch, cpus) -> None:
    # the converge pool has one worker per usable CPU; None undoes the
    # test's patches, which gives back the host's usable CPUs
    if cpus is None:
        monkeypatch.undo()
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def unit_square_curve(x0: float = 0.0) -> PolygonalCurve:
    return PolygonalCurve(
        np.array([[x0, 0.0], [x0 + 1.0, 0.0], [x0 + 1.0, 1.0], [x0, 1.0]])
    )


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_reads_keys_comments_and_line_numbers(tmp_path):
    path = write_config(
        tmp_path / "run.cfg",
        """\
        # full line comment
        scheme = sp-euler

        tau = 1/640  # trailing comment
        N=24
        """,
    )
    entries = parse_config_file(path)
    assert entries == {
        "scheme": ("sp-euler", 2),
        "tau": ("1/640", 4),
        "N": ("24", 5),
    }


def test_parse_config_rejects_duplicate_key(tmp_path):
    path = write_config(tmp_path / "run.cfg", "tau = 0.1\ntau = 0.2\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_file(path)


def test_parse_config_rejects_bare_line(tmp_path):
    path = write_config(tmp_path / "run.cfg", "just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(path)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config_file("/nonexistent/run.cfg")


# ---------------------------------------------------------------------------
# path rules


def test_path_rule_forms():
    coef, exp, _ = parse_path_rule("0.05h")
    assert (coef, exp) == (0.05, 1.0)
    coef, exp, _ = parse_path_rule("h^2")
    assert (coef, exp) == (1.0, 2.0)
    coef, exp, _ = parse_path_rule("0.05h^(2/3)")
    assert coef == 0.05
    assert exp == pytest.approx(2.0 / 3.0, abs=1e-15)
    coef, exp, _ = parse_path_rule("tau = 0.2*h")
    assert (coef, exp) == (0.2, 1.0)


def test_path_rule_resolvers():
    _, _, resolve = parse_path_rule("h^2")
    assert resolve(1.0 / 256.0) == 16
    assert resolve(1.0 / 1024.0) == 32
    _, _, resolve = parse_path_rule("0.05h")
    assert resolve(0.005) == 10
    _, _, resolve = parse_path_rule("0.05h^(2/3)")
    assert resolve(0.05 * (1.0 / 64.0) ** (2.0 / 3.0)) == 64


def test_path_rule_rejects_garbage():
    with pytest.raises(ConfigError, match="invalid path rule"):
        parse_path_rule("x")
    with pytest.raises(ConfigError, match="positive"):
        parse_path_rule("h^0")
    with pytest.raises(ConfigError, match="positive"):
        parse_path_rule("0h")
    with pytest.raises(ConfigError, match="invalid number '1/0'"):
        parse_path_rule("h^(1/0)")
    with pytest.raises(ConfigError, match="non-finite number 'inf'"):
        parse_path_rule("infh")
    _, _, resolve = parse_path_rule("h")
    with pytest.raises(ConfigError, match="N=2 < 3"):
        resolve(0.5)


@pytest.mark.parametrize("text", ["h^(2/3]", "h^{2/3)", "h^(2/3", "h^2/3)", "h^{2/3}", "h^[2]", "h^2/3", "0.05h^2/3"])
def test_path_rule_rejects_brackets_other_than_one_balanced_pair(text):
    # an unbracketed fraction would read c*h^(2/3) where precedence reads (c/3)*h^2
    with pytest.raises(ConfigError, match=r"invalid path rule .*c\*h\^\(2/3\); a fraction needs brackets"):
        parse_path_rule(text)


# ---------------------------------------------------------------------------
# argument handling


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_simulate_requires_config_flag():
    with pytest.raises(SystemExit) as info:
        main(["simulate"])
    assert info.value.code == 1


# ---------------------------------------------------------------------------
# simulate


SIMULATE_TEMPLATE = """\
scheme = sp-euler
N = 24
tau = 1/128
T = 1/16
gamma = 0
snapshots = 0 0.03125 0.0625
out = {out}
"""


def test_simulate_writes_outputs_and_matches_library_run(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "run.cfg", SIMULATE_TEMPLATE.format(out=out))
    assert main(["simulate", "--config", cfg]) == 0

    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "diagnostics.csv",
        "manifest.json",
        "snapshot_00.txt",
        "snapshot_01.txt",
        "snapshot_02.txt",
    ]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"] == ECHOES["ellipse-simulate"][2]
    assert manifest["snapshot_times"] == [0.0, 0.03125, 0.0625]
    assert manifest["files"] == names[:1] + names[2:] + ["manifest.json"]
    assert manifest["switch_time"] is None
    assert manifest["forced_switch"] is False
    assert "failure" not in manifest

    diag_text = (out / "diagnostics.csv").read_text(encoding="ascii")
    lines = diag_text.splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    assert len(lines) == 1 + 9  # t = 0 plus 8 steps
    assert lines[1].startswith("0.0,1.0,0.0,")
    assert lines[1].endswith(",SP")

    # the CLI is a thin shell over the library: outputs must agree bitwise
    config = SchemeConfig(scheme="sp-euler", N=24, tau=1.0 / 128.0, T=1.0 / 16.0, gamma=0.0)
    result = run(config, snapshot_times=[0.0, 0.03125, 0.0625])
    buf = io.StringIO()
    write_diagnostics_csv(result.series, buf)
    assert buf.getvalue() == diag_text
    snap = result.snapshots[1]
    buf = io.StringIO()
    write_snapshot(buf, snap.curve, snap.t, snap.kappa)
    assert buf.getvalue() == (out / "snapshot_01.txt").read_text(encoding="ascii")


def test_simulate_replay_is_bitwise_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = write_config(tmp_path / "a.cfg", SIMULATE_TEMPLATE.format(out=out_a))
    cfg_b = write_config(tmp_path / "b.cfg", SIMULATE_TEMPLATE.format(out=out_b))
    assert main(["simulate", "--config", cfg_a]) == 0
    assert main(["simulate", "--config", cfg_b]) == 0
    for name in ("diagnostics.csv", "snapshot_00.txt", "snapshot_01.txt", "snapshot_02.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_numerical_failure_exits_two_with_partial_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path / "run.cfg",
        f"""\
        scheme = sp-euler
        shape = mikula
        N = 32
        tau = 0.01
        T = 0.05
        gamma = 0
        max_newton = 1
        out = {out}
        """,
    )
    assert main(["simulate", "--config", cfg]) == 2
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert "failure" in manifest
    diag = (out / "diagnostics.csv").read_text(encoding="ascii").splitlines()
    assert diag[0] == DIAGNOSTICS_HEADER
    assert len(diag) >= 2  # the t = 0 row survives the failed step


@pytest.mark.parametrize(
    "body",
    [
        "scheme = sp-euler\nscheme = sp-cn\nN = 8\ntau = 0.1\nT = 0.2\n",
        "scheme = sp-euler\nN = 8\ntau = 0.1\nT = 0.2\nwarp = 9\n",
        "scheme = sp-euler\nN = 8\ntau = 0.1\n",
        "scheme = sp-euler\nN = 8\ntau = 0.1\nT = 0.25\n",
        "scheme = sp-euler\nN = 8\ntau = zebra\nT = 0.2\n",
        "scheme = sp-euler\nN = 8.5\ntau = 0.1\nT = 0.2\n",
        "scheme = sp-euler\nN = inf\ntau = 0.1\nT = 0.2\n",
        "scheme = sp-euler\nN = nan\ntau = 0.1\nT = 0.2\n",
        "scheme = sp-euler\nN = 8\ntau = 0.1\nT = 0.2\nmax_newton = inf\n",
        "scheme = sp-euler\nN = 8\ntau = 0.1\nT = 0.2\nsnapshots = 0 nan\n",
        "scheme = sp-euler\nN = 8\ntau = 0.1\nT = 0.2\nsnapshots = 0 inf\n",
        "scheme = sp-euler\nN = 8\ntau = 0.1\nT = 0.2\na = -1\n",
        "scheme = sp-euler\nN = 8\ntau = 0.1\nT = 0.2\na = nan\n",
        "scheme = sp-euler\nshape = rectangle\nN = 8\ntau = 0.1\nT = 0.2\nwidth = 0\n",
        "scheme = sp-euler\nshape = rectangle\nN = 6\ntau = 0.1\nT = 0.2\n",
        "scheme = sp-bdf2\nN = 16\ntau = 1e-320\nT = 0.8\n",
    ],
    ids=[
        "duplicate",
        "unknown-key",
        "missing-T",
        "T-not-multiple",
        "bad-number",
        "bad-integer",
        "infinite-N",
        "nan-N",
        "infinite-max-newton",
        "nan-snapshot",
        "infinite-snapshot",
        "negative-axis",
        "nan-axis",
        "zero-width",
        "rectangle-too-few-vertices",
        "T-over-tau-overflows",
    ],
)
def test_simulate_rejects_invalid_configs(tmp_path, capsys, body):
    cfg = write_config(tmp_path / "run.cfg", body + f"out = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_snapshot_time_far_past_T_is_taken_at_T(tmp_path):
    # t / tau = 1e308 * 128 is inf; a fresh interpreter, so that an
    # uncaught exception shows as a traceback
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "run.cfg",
        f"scheme = sp-euler\nN = 24\ntau = 1/128\nT = 1/16\nsnapshots = 0 1e308\nout = {out}\n",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(curveflow.app.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "curveflow.app", "simulate", "--config", cfg],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["snapshot_times"] == [0.0, 0.0625]


# ---------------------------------------------------------------------------
# converge


def test_converge_identical_levels_give_zero_error_and_no_order(tmp_path):
    out = tmp_path / "study"
    cfg = write_config(
        tmp_path / "study.cfg",
        f"""\
        scheme = sp-euler
        T = 0.02
        taus = 0.005 0.005
        path = 0.05h
        out = {out}
        """,
    )
    assert main(["converge", "--config", cfg]) == 0
    assert (out / "eoc.csv").read_text(encoding="ascii") == (
        "tau,h,error,order\n0.005,0.1,0.0,\n"
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "converge"
    assert manifest["path_rule"] == "0.05h"
    assert manifest["levels"] == [{"tau": 0.005, "N": 10}, {"tau": 0.005, "N": 10}]
    assert manifest["config"]["gamma"] == 0.0  # accuracy studies disable switching


def test_converge_refinement_study_and_thread_pool_agree(tmp_path, monkeypatch):
    body = """\
        scheme = sp-euler
        T = 1/16
        taus = 1/256 1/1024 1/4096
        path = h^2
        out = {out}
        """
    out_serial = tmp_path / "serial"
    cfg_serial = write_config(tmp_path / "serial.cfg", body.format(out=out_serial))
    usable_cpus(monkeypatch, 1)
    assert main(["converge", "--config", cfg_serial]) == 0

    rows = (out_serial / "eoc.csv").read_text(encoding="ascii").splitlines()
    assert rows[0] == "tau,h,error,order"
    assert len(rows) == 3  # three levels give two comparison rows
    first = rows[1].split(",")
    second = rows[2].split(",")
    assert (float(first[0]), float(first[1])) == (1.0 / 256.0, 1.0 / 16.0)
    assert (float(second[0]), float(second[1])) == (1.0 / 1024.0, 1.0 / 32.0)
    assert first[3] == ""
    assert float(second[2]) < float(first[2])
    assert 0.7 < float(second[3]) < 1.3  # first order in tau along tau = h^2

    manifest = json.loads((out_serial / "manifest.json").read_text())
    assert manifest["levels"] == [
        {"tau": 1.0 / 256.0, "N": 16},
        {"tau": 1.0 / 1024.0, "N": 32},
        {"tau": 1.0 / 4096.0, "N": 64},
    ]

    for cpus in (2, None):  # None: the host's usable CPUs
        out_pool = tmp_path / f"pool-{cpus}"
        cfg_pool = write_config(tmp_path / f"pool-{cpus}.cfg", body.format(out=out_pool))
        usable_cpus(monkeypatch, cpus)
        assert main(["converge", "--config", cfg_pool]) == 0
        assert (out_pool / "eoc.csv").read_bytes() == (out_serial / "eoc.csv").read_bytes(), cpus


def test_converge_default_pool_uses_usable_cpus_and_starts_finest_level(tmp_path, monkeypatch):
    body = """\
        scheme = sp-euler
        T = 0.02
        taus = 0.005 0.0025 0.00125
        path = 0.05h
        out = {out}
        """
    out_serial = tmp_path / "serial"
    usable_cpus(monkeypatch, 1)
    assert main(["converge", "--config", write_config(tmp_path / "serial.cfg", body.format(out=out_serial))]) == 0

    executors = []

    class InlineExecutor:
        # records how it is built and what is submitted; runs each call at once
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.submitted = []
            executors.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, config):
            self.submitted.append(config.tau)
            future = Future()
            future.set_result(fn(config))
            return future

    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(curveflow.app, "ProcessPoolExecutor", InlineExecutor)
    out_pool = tmp_path / "pool"
    assert main(["converge", "--config", write_config(tmp_path / "pool.cfg", body.format(out=out_pool))]) == 0

    assert [e.max_workers for e in executors] == [2]
    assert executors[0].submitted == [0.00125, 0.0025, 0.005]
    assert (out_pool / "eoc.csv").read_bytes() == (out_serial / "eoc.csv").read_bytes()


def test_converge_ap_bdf4_on_ellipse_completes(tmp_path):
    out = tmp_path / "study"
    cfg = write_config(
        tmp_path / "study.cfg",
        f"""\
        scheme = ap-bdf4
        T = 0.05
        taus = 1/500 1/720 1/980
        path = 0.05h^(2/3)
        out = {out}
        """,
    )
    assert main(["converge", "--config", cfg]) == 0
    rows = (out / "eoc.csv").read_text(encoding="ascii").splitlines()
    assert len(rows) == 3
    assert float(rows[2].split(",")[2]) < float(rows[1].split(",")[2])


@pytest.mark.parametrize(
    "body",
    [
        "scheme = sp-euler\nT = 0.02\npath = 0.05h\n",
        "scheme = sp-euler\nT = 0.02\ntaus = 0.005\npath = 0.05h\n",
        "scheme = sp-euler\nT = 0.02\ntaus = 0.005 0.0025\n",
    ],
    ids=["missing-taus", "single-tau", "missing-path"],
)
def test_converge_rejects_incomplete_studies(tmp_path, body):
    cfg = write_config(tmp_path / "study.cfg", body + f"out = {tmp_path / 'out'}\n")
    assert main(["converge", "--config", cfg]) == 1


@pytest.mark.parametrize(
    "taus, named",
    [("-1/500 1/720", "tau=-0.002"), ("0 1/720", "tau=0.0"), ("1e-300 1e-301", "tau=1e-300")],
    ids=["negative", "zero", "N-overflows"],
)
def test_converge_rejects_a_tau_its_path_rule_cannot_resolve(tmp_path, taus, named):
    # a fresh interpreter, so that an uncaught exception shows as a traceback
    cfg = write_config(
        tmp_path / "study.cfg",
        f"scheme = ap-bdf3\nT = 0.02\ntaus = {taus}\npath = 0.05h^(2/3)\nout = {tmp_path / 'out'}\n",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(curveflow.app.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "curveflow.app", "converge", "--config", cfg],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and named in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_converge_failure_exits_two(tmp_path, monkeypatch, capsys):
    # both levels fail; the pool starts level 1 first, yet level 0 is named
    for cpus in (2, 1):
        out = tmp_path / f"study-{cpus}"
        cfg = write_config(
            tmp_path / f"study-{cpus}.cfg",
            f"""\
            scheme = sp-euler
            T = 0.02
            taus = 0.005 0.0025
            path = 0.05h
            max_newton = 1
            out = {out}
            """,
        )
        usable_cpus(monkeypatch, cpus)
        assert main(["converge", "--config", cfg]) == 2, cpus
        assert "level 0" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"].startswith("level 0 (tau=0.005, N=10)"), cpus
        assert (out / "eoc.csv").read_text(encoding="ascii") == "tau,h,error,order\n"


def test_converge_leaves_no_child_process(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 2)
    assert multiprocessing.active_children() == []
    for max_newton, code in ((50, 0), (1, 2)):
        cfg = write_config(
            tmp_path / f"study-{max_newton}.cfg",
            f"""\
            scheme = sp-euler
            T = 0.02
            taus = 0.005 0.0025
            path = 0.05h
            max_newton = {max_newton}
            out = {tmp_path / f"study-{max_newton}"}
            """,
        )
        assert main(["converge", "--config", cfg]) == code
        assert multiprocessing.active_children() == [], code


# ---------------------------------------------------------------------------
# config keys and the manifest's config echo

# (command, config body, the manifest's "config" object); the echoes are
# literal dicts, so they cannot follow a change in the code that builds them
ECHOES = {
    "ellipse-simulate": (
        "simulate",
        SIMULATE_TEMPLATE,
        {
            "N": 24, "T": 0.0625, "a": 2.0, "b": 1.0, "bdf_order": 1, "gamma": 0.0, "max_newton": 100,
            "scheme": "sp-euler", "shape": "ellipse", "tau": 0.0078125, "tol": 1e-10,
        },
    ),
    "mikula-tol-max-newton": (
        "simulate",
        "scheme = sp-bdf2\nshape = mikula\nN = 32\ntau = 1/1000\nT = 4/1000\ntol = 1e-9\nmax_newton = 40\nout = {out}\n",
        {
            "N": 32, "T": 0.004, "bdf_order": 2, "gamma": 0.05, "max_newton": 40,
            "scheme": "sp-bdf2", "shape": "mikula", "tau": 0.001, "tol": 1e-09,
        },
    ),
    "rectangle-width-height": (
        "simulate",
        "scheme = ap-bdf2\nshape = rectangle\nwidth = 3\nheight = 1.5\nN = 24\ntau = 1/200\nT = 1/50\nout = {out}\n",
        {
            "N": 24, "T": 0.02, "bdf_order": 2, "gamma": 0.25, "height": 1.5, "max_newton": 100,
            "scheme": "ap-bdf2", "shape": "rectangle", "tau": 0.005, "tol": 1e-10, "width": 3.0,
        },
    ),
    "rectangle-converge": (
        "converge",
        "scheme = ap-bdf2\nshape = rectangle\nT = 1/50\ntaus = 1/100 1/200\npath = 0.2h\nout = {out}\n",
        {
            "N": 20, "T": 0.02, "bdf_order": 2, "gamma": 0.0, "height": 1.0, "max_newton": 100,
            "scheme": "ap-bdf2", "shape": "rectangle", "tau": 0.01, "tol": 1e-10, "width": 4.0,
        },
    ),
}


@pytest.mark.parametrize("case", list(ECHOES))
def test_manifest_echoes_the_run_config_and_its_shape_parameters(tmp_path, monkeypatch, case):
    # a converge echo is level 0's config, with switching disabled
    usable_cpus(monkeypatch, 1)
    command, body, echo = ECHOES[case]
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", body.format(out=out))
    assert main([command, "--config", cfg]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"] == echo


def test_every_config_key_reaches_scheme_config(tmp_path, monkeypatch):
    values = {
        "scheme": "ap-bdf3", "shape": "rectangle", "a": 3.0, "b": 0.5, "width": 2.0, "height": 1.5,
        "N": 40, "tau": 0.01, "T": 0.05, "tol": 1e-8, "gamma": 0.5, "max_newton": 7,
    }
    defaults = SchemeConfig(scheme="sp-euler", N=3, tau=1.0, T=1.0)
    keys = {f.name for f in dataclasses.fields(SchemeConfig)} - {"initial_curve"}
    assert set(values) == keys
    assert all(getattr(defaults, key) != value for key, value in values.items())

    seen = []

    def capture(config, snapshot_times=()):
        seen.append(config)
        raise ConfigError("captured")

    monkeypatch.setattr(curveflow.app, "run", capture)
    body = "".join(f"{key} = {value}\n" for key, value in values.items())
    cfg = write_config(tmp_path / "run.cfg", body)
    assert main(["simulate", "--config", cfg]) == 1
    assert seen == [SchemeConfig(**values)]


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("initial_curve", "1", "unknown key 'initial_curve'"),
        ("N", "8.5", "N must be an integer"),
        ("max_newton", "2.5", "max_newton must be a positive integer"),
    ],
)
def test_config_key_errors_name_the_key(tmp_path, capsys, key, value, named):
    entries = {"scheme": "sp-euler", "N": "8", "tau": "0.1", "T": "0.2", key: value, "out": tmp_path / "out"}
    cfg = write_config(tmp_path / "run.cfg", "".join(f"{k} = {v}\n" for k, v in entries.items()))
    assert main(["simulate", "--config", cfg]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# distance


def test_distance_offset_unit_squares_prints_twelve_digits(tmp_path, capsys):
    file_a = tmp_path / "a.txt"
    file_b = tmp_path / "b.txt"
    write_snapshot(str(file_a), unit_square_curve(0.0), 0.0)
    write_snapshot(str(file_b), unit_square_curve(0.5), 0.0)
    assert main(["distance", str(file_a), str(file_b)]) == 0
    assert capsys.readouterr().out == "1.00000000000\n"


def test_distance_file_against_itself_is_zero(tmp_path, capsys):
    file_a = tmp_path / "a.txt"
    write_snapshot(str(file_a), unit_square_curve(0.25), 1.5)
    assert main(["distance", str(file_a), str(file_a)]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_distance_missing_file_exits_one(tmp_path, capsys):
    file_a = tmp_path / "a.txt"
    write_snapshot(str(file_a), unit_square_curve(), 0.0)
    assert main(["distance", str(file_a), str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_distance_malformed_snapshot_exits_one(tmp_path, capsys):
    file_a = tmp_path / "a.txt"
    file_b = tmp_path / "b.txt"
    write_snapshot(str(file_a), unit_square_curve(), 0.0)
    file_b.write_text("not a snapshot\n", encoding="ascii")
    assert main(["distance", str(file_a), str(file_b)]) == 1
    assert "invalid snapshot" in capsys.readouterr().err


def test_distance_self_intersecting_snapshot_exits_one(tmp_path, capsys):
    file_a = tmp_path / "a.txt"
    file_b = tmp_path / "b.txt"
    write_snapshot(str(file_a), unit_square_curve(), 0.0)
    file_b.write_text("t=0 N=4\n0 0\n4 0\n1 2\n3 2\n", encoding="ascii")
    assert main(["distance", str(file_a), str(file_b)]) == 1
    assert "error:" in capsys.readouterr().err
