"""Golden outputs: the diagnostics and final state of short runs of every
scheme, a snapshot file and a convergence study's eoc.csv, pinned by digest.

A change that is meant to keep the solver's outputs bitwise must leave every
digest here unchanged.  Rounding differs across numpy, scipy and BLAS builds,
so the digests only hold for the versions they were taken with; elsewhere the
test is skipped with the reason.  The band LU is scipy's: curveflow.linalg
loads dgbtrf and dgbtrs from scipy's _flapack extension, with the OpenBLAS
bundled in scipy, without importing scipy.linalg, so the scipy version still
pins the LAPACK the digests were taken with.
"""

import hashlib
import io
import os

import numpy as np
import pytest
import scipy

from curveflow.app import main
from curveflow.geometry import write_snapshot
from curveflow.metrics import write_diagnostics_csv
from curveflow.schemes import SCHEMES, SchemeConfig, run

# numpy and scipy versions the digests were taken with (OpenBLAS 0.3.31, x86-64)
VERSIONS = ("2.4.6", "1.17.1")

# (scheme, shape) -> first 16 hex digits of the SHA-256 of the diagnostics
# CSV text, and of the final vertices' and curvatures' float64 bytes.  All
# nine schemes at N=16, tau=0.01, T=0.04, gamma=0; "circle" is sp-bdf2 on
# the unit circle with the default threshold, which forces the switch to
# ap-bdf2 at its startup step.
GOLDEN = {
    ("sp-euler", "ellipse"): ("5b840ffd9d891d2e", "0a8f56f5af734475"),
    ("sp-cn", "ellipse"): ("110c91570ab8c1da", "971490b3b2d892e0"),
    ("sp-bdf2", "ellipse"): ("19f89de65f67b1ef", "a8a7cad0f799eacf"),
    ("sp-bdf2-variant", "ellipse"): ("7caa26ddeaf5c429", "b7f79e4257968633"),
    ("pd-bdf2", "ellipse"): ("4693f3eeb70e53e9", "4085981c79308296"),
    ("ap-bdf1", "ellipse"): ("0f39a40f0f7e4850", "5b429eefe879bc05"),
    ("ap-bdf2", "ellipse"): ("28b049a9aaffe1d6", "eb0fdd304bdc7bca"),
    ("ap-bdf3", "ellipse"): ("acb5ef2e33606f87", "686ea070692385cd"),
    ("ap-bdf4", "ellipse"): ("c31b18f8510253c5", "5322fb5055ff7990"),
    ("sp-euler", "mikula"): ("51006b05203aa818", "b88b4873b99bc56d"),
    ("sp-cn", "mikula"): ("04285c14d40421f2", "18ccf63a9b37338a"),
    ("sp-bdf2", "mikula"): ("3ff10d123466a1fb", "8c56edc193c4a822"),
    ("sp-bdf2-variant", "mikula"): ("7fbce57bd944ae13", "7b332b592a962c27"),
    ("pd-bdf2", "mikula"): ("2bc66be704bec09c", "88514bb7e4957a4c"),
    ("ap-bdf1", "mikula"): ("d8c886b92aadb28c", "74f32ff48554d455"),
    ("ap-bdf2", "mikula"): ("86f29986d9e35dcc", "036cac0cb9cb3ed8"),
    ("ap-bdf3", "mikula"): ("109e0daf45b62c1b", "55237adf975062be"),
    ("ap-bdf4", "mikula"): ("de6e0bb7d6b44682", "8dc6e92c1252b2b0"),
    ("sp-bdf2", "circle"): ("26924c1b28f0b392", "6f694d75bf8bdcc0"),
}

# the circle run's final level through write_snapshot, and the eoc.csv of an
# ap-bdf3 study: tau = 1/100, 1/200, 1/400 on the path 0.05 h^(2/3) to T = 0.02
SNAPSHOT_GOLDEN = "49e66c660a15c66f"
EOC_GOLDEN = "5a7e9b51fca1d581"

pinned = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != VERSIONS,
    reason=f"digests taken with numpy {VERSIONS[0]} and scipy {VERSIONS[1]}",
)


def _config(scheme, shape):
    if shape == "circle":
        return SchemeConfig(scheme=scheme, N=16, tau=0.01, T=0.04, a=1.0, b=1.0)
    return SchemeConfig(scheme=scheme, N=16, tau=0.01, T=0.04, shape=shape, gamma=0.0)


def _digests(result):
    text = io.StringIO()
    write_diagnostics_csv(result.series, text)
    last = result.state.history[-1]
    state = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (last.curve.vertices, last.kappa))
    return tuple(_digest(data) for data in (text.getvalue().encode(), state))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pinned
def test_runs_reproduce_their_golden_digests():
    assert set(SCHEMES) == {scheme for scheme, _ in GOLDEN}
    got = {}
    for scheme, shape in GOLDEN:
        result = run(_config(scheme, shape))
        assert result.ok, f"{scheme} on {shape}: {result.failure}"
        assert result.forced_switch == (shape == "circle")
        got[scheme, shape] = _digests(result)
    assert got == GOLDEN


@pinned
def test_writers_reproduce_their_golden_digests(tmp_path, monkeypatch):
    config = _config("sp-bdf2", "circle")
    result = run(config)
    assert result.ok, result.failure
    last = result.state.history[-1]
    text = io.StringIO()
    write_snapshot(text, last.curve, config.T, last.kappa)
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"scheme = ap-bdf3\nT = 0.02\ntaus = 1/100 1/200 1/400\npath = 0.05h^(2/3)\nout = {tmp_path / 'out'}\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["converge", "--config", str(cfg)]) == 0
    got = (_digest(text.getvalue().encode()), _digest((tmp_path / "out" / "eoc.csv").read_bytes()))
    assert got == (SNAPSHOT_GOLDEN, EOC_GOLDEN)
