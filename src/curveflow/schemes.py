"""Implicit time-stepping schemes for curve diffusion of closed planar curves.

Each scheme advances a polygonal curve and its nodal curvature by solving one
nonlinear system per step with Newton's method.  The conservation structure
built into the step varies by family:

* SP (structure preserving): both the perimeter dissipation law and exact
  area conservation are step equations, with multipliers lam and eta as extra
  unknowns (two borders in the linear algebra).
* PD (perimeter decreasing): only the perimeter law, multiplier lam.
* AP (area preserving): only the area law, multiplier eta; BDF orders 1 to 4.

The driver `run` also implements the equilibrium modification: an SP run
monitors the perimeter decrement per step and, once its magnitude falls below
the threshold gamma, permanently sets lam = 0, drops the perimeter equation
and continues with the matching AP scheme.  The AP step stays solvable at the
discrete equilibrium, where constant curvature makes the two conservation
laws linearly dependent and the SP step degenerate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .femcore import (
    NewtonIterate,
    ReferenceGeometry,
    SchemeContext,
    assemble_newton_blocks,
    deinterleave,
    initial_curvature,
)
from .geometry import (
    PolygonalCurve,
    _shoelace,
    generate_ellipse,
    generate_mikula,
    generate_rectangle,
    mesh_ratio,
    perimeter,
    signed_area,
)
from .linalg import EquilibriumDegeneracyError, SolverError, assemble_system, solve_bordered
from .metrics import DiagnosticsRow, DiagnosticsSeries

__all__ = [
    "SCHEMES",
    "AP_PARTNER",
    "SchemeError",
    "NewtonDivergenceError",
    "HistoryEntry",
    "SchemeState",
    "StepReport",
    "SchemeConfig",
    "Snapshot",
    "RunResult",
    "scheme_kind",
    "bdf_coefficients",
    "newton_outer",
    "step_sp_euler",
    "step_sp_cn",
    "step_sp_bdf2",
    "step_sp_bdf2_variant",
    "step_pd_euler",
    "step_pd_bdf2",
    "step_ap_bdfk",
    "startup",
    "run",
    "run_modified",
]

SCHEMES = (
    "sp-euler",
    "sp-cn",
    "sp-bdf2",
    "sp-bdf2-variant",
    "pd-bdf2",
    "ap-bdf1",
    "ap-bdf2",
    "ap-bdf3",
    "ap-bdf4",
)

_SHAPES = ("ellipse", "mikula", "rectangle")

# history entries required before the scheme can take a step
_HISTORY_DEPTH = {
    "sp-euler": 1,
    "sp-cn": 1,
    "sp-bdf2": 2,
    "sp-bdf2-variant": 2,
    "pd-bdf2": 2,
    "ap-bdf1": 1,
    "ap-bdf2": 2,
    "ap-bdf3": 3,
    "ap-bdf4": 4,
}

# AP scheme the modification algorithm continues with after the switch
AP_PARTNER = {
    "sp-euler": "ap-bdf1",
    "sp-cn": "ap-bdf2",
    "sp-bdf2": "ap-bdf2",
    "sp-bdf2-variant": "ap-bdf2",
}


class SchemeError(Exception):
    """A time step could not be completed."""


class NewtonDivergenceError(SchemeError):
    """Newton iteration exhausted max_newton without meeting the tolerance."""

    def __init__(self, message: str, last_norm: float) -> None:
        super().__init__(message)
        self.last_norm = last_norm


def scheme_kind(scheme: str) -> str:
    """Family tag of a scheme name: SP, PD or AP."""
    prefix = scheme.split("-", 1)[0].upper()
    if prefix not in ("SP", "PD", "AP"):
        raise ValueError(f"unknown scheme '{scheme}'")
    return prefix


def bdf_coefficients(k: int) -> Tuple[Fraction, ...]:
    """Coefficients (delta_0, ..., delta_k) of the order-k backward
    differentiation formula, from the generating polynomial
    sum_{l=1..k} (1 - z)^l / l, exact as fractions; their sum is exactly 0."""
    if not 1 <= k <= 6:
        raise ValueError(f"BDF order must be in 1..6, got {k}")
    coeffs = [Fraction(0)] * (k + 1)
    for ell in range(1, k + 1):
        for i in range(ell + 1):
            coeffs[i] += Fraction((-1) ** i * math.comb(ell, i), ell)
    return tuple(coeffs)


class HistoryEntry(NamedTuple):
    """One accepted time level: the curve with its curvature, multipliers,
    perimeter and signed area."""

    curve: PolygonalCurve
    kappa: np.ndarray
    lam: float
    eta: float
    L: float
    A: float


@dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics of one accepted step."""

    newton_iterations: int
    final_update_norm: float
    deltaL: float  # (L_new - L_old) / tau of the step just completed
    lam: float
    eta: float
    mode: str  # "SP" | "AP" | "PD"


@dataclass
class SchemeState:
    """Rolling state of a run: ring of recent time levels plus run constants.

    ``history[-1]`` is the newest level; ``step_index`` counts completed steps
    so the newest level sits at time ``step_index * tau``.
    """

    history: deque
    step_index: int
    tau: float
    A0: float
    L0: float
    startup_reports: List[StepReport] = field(default_factory=list)


@dataclass(frozen=True)
class SchemeConfig:
    """Validated parameters of one simulation run.

    gamma = None selects the default modification threshold 50 * tau;
    gamma = 0 disables mode switching entirely.  ``initial_curve`` overrides
    the named generator shape.
    """

    scheme: str
    N: int
    tau: float
    T: float
    tol: float = 1e-10
    gamma: Optional[float] = None
    max_newton: int = 100
    shape: str = "ellipse"
    a: float = 2.0
    b: float = 1.0
    width: float = 4.0
    height: float = 1.0
    initial_curve: Optional[PolygonalCurve] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{self.scheme}' (expected one of {', '.join(SCHEMES)})")
        if self.initial_curve is None and self.shape not in _SHAPES:
            raise ValueError(f"unknown shape '{self.shape}' (expected one of {', '.join(_SHAPES)})")
        if int(self.N) != self.N or self.N < 3:
            raise ValueError(f"N must be an integer >= 3, got {self.N}")
        for name in ("tau", "T", "tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        ratio = self.T / self.tau
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(f"T/tau must be a positive integer, got {ratio}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if int(self.max_newton) != self.max_newton or self.max_newton < 1:
            raise ValueError(f"max_newton must be a positive integer, got {self.max_newton}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.tau))

    @property
    def gamma_value(self) -> float:
        return 50.0 * self.tau if self.gamma is None else self.gamma

    @property
    def kind(self) -> str:
        return scheme_kind(self.scheme)

    @property
    def history_depth(self) -> int:
        return _HISTORY_DEPTH[self.scheme]

    @property
    def bdf_order(self) -> int:
        if self.scheme.startswith("ap-bdf"):
            return int(self.scheme[-1])
        return 2 if "bdf2" in self.scheme else 1

    def make_initial_curve(self) -> PolygonalCurve:
        if self.initial_curve is not None:
            return self.initial_curve
        if self.shape == "ellipse":
            return generate_ellipse(self.a, self.b, self.N)
        if self.shape == "mikula":
            return generate_mikula(self.N)
        return generate_rectangle(self.width, self.height, self.N)


def newton_outer(
    model: Callable[[NewtonIterate], "object"],
    start: NewtonIterate,
    tol: float,
    max_newton: int,
) -> Tuple[NewtonIterate, int, float]:
    """Newton iteration on the blocks supplied by ``model``.

    Applies full updates until max(|dX|_inf, |dkappa|_inf, |dlam|, |deta|)
    <= tol; even a start that is already a root costs one linear solve.
    Returns (iterate, iterations, final update norm); the step functions wrap
    the counters into a StepReport.  A non-finite update component raises
    NewtonDivergenceError at once, with last_norm = inf.
    """
    it = start
    norm = math.inf
    for iteration in range(1, max_newton + 1):
        blocks = model(it)
        z = solve_bordered(assemble_system(blocks))
        n = blocks.P.shape[0]
        dX = deinterleave(z[: 2 * n])
        dk = z[2 * n : 3 * n]
        pos = 3 * n
        dlam = deta = 0.0
        if blocks.a1 is not None:
            dlam = float(z[pos])
            pos += 1
        if blocks.a2 is not None:
            deta = float(z[pos])
        sizes = {
            "position": float(np.abs(dX).max()),
            "curvature": float(np.abs(dk).max()),
            "lam": abs(dlam),
            "eta": abs(deta),
        }
        for name, size in sizes.items():
            # Python's max drops a NaN unless it comes first
            if not math.isfinite(size):
                raise NewtonDivergenceError(
                    f"non-finite {name} update at Newton iteration {iteration}", last_norm=math.inf
                )
        norm = max(sizes.values())
        it = NewtonIterate(it.X + dX, it.kappa + dk, it.lam + dlam, it.eta + deta)
        if norm <= tol:
            return it, iteration, norm
    raise NewtonDivergenceError(
        f"Newton did not reach tol={tol} within {max_newton} iterations (last update {norm:.3e})",
        last_norm=norm,
    )


def _require_history(state: SchemeState, depth: int) -> None:
    if len(state.history) < depth:
        raise SchemeError(f"scheme needs {depth} history entries, state has {len(state.history)}")


# which constraint rows an Euler-type step of each family carries
_FLAVOR_ROWS = {"sp": (True, True), "pd": (True, False), "ap": (False, True)}


def _euler_context(state: SchemeState, flavor: str) -> SchemeContext:
    last = state.history[-1]
    use_perimeter, use_area = _FLAVOR_ROWS[flavor]
    return SchemeContext(
        delta0=1.0,
        xhist=-np.array(last.curve.vertices),
        use_perimeter=use_perimeter,
        dL0=1.0,
        Lhist=-last.L,
        use_area=use_area,
        A0=state.A0,
    )


def _start_iterate(state: SchemeState, ctx: SchemeContext) -> NewtonIterate:
    # previous time level, with multipliers that are not unknowns pinned to 0
    last = state.history[-1]
    return NewtonIterate(
        np.array(last.curve.vertices),
        np.array(last.kappa),
        last.lam if ctx.use_perimeter else 0.0,
        last.eta if ctx.use_area else 0.0,
    )


# A Newton run that ends with its update norm within _STALL_FACTOR * tol is a
# rounding-floor stall (the multiplier border is nearly rank deficient, cf. the
# constant-curvature degeneracy), not a basin failure: retrying from another
# guess cannot pass the floor.  Anything worse is treated as true divergence.
_STALL_FACTOR = 1e5

# Continuation ladder for Euler-type steps whose direct solve diverges: the
# same step problem is solved at tau / 2^j for j = _CONTINUATION_STAGES .. 0,
# each root seeding the next stage, so the final stage is the original system.
_CONTINUATION_STAGES = 10


def _solve_step(
    state: SchemeState,
    config: SchemeConfig,
    ctx: SchemeContext,
    ref_curve: PolygonalCurve,
    tau: Optional[float] = None,
    tau_scalable: bool = False,
) -> Tuple[NewtonIterate, int, float]:
    tau = state.tau if tau is None else tau
    ref = ReferenceGeometry(ref_curve)

    def model_at(tau_s: float):
        def model(it: NewtonIterate):
            return assemble_newton_blocks(ctx, ref, it, tau_s)

        return model

    start = _start_iterate(state, ctx)
    try:
        return newton_outer(model_at(tau), start, config.tol, config.max_newton)
    except NewtonDivergenceError as exc:
        if not tau_scalable or exc.last_norm <= _STALL_FACTOR * config.tol:
            raise
    # An Euler-type step scales cleanly in the time step (the history terms do
    # not involve tau), so a rough curve whose direct solve overshoots can be
    # reached by continuation; only the iterations that build the accepted
    # root are reported.
    it = start
    total = 0
    for j in range(_CONTINUATION_STAGES, -1, -1):
        it, iters, norm = newton_outer(model_at(tau / 2.0**j), it, config.tol, config.max_newton)
        total += iters
    return it, total, norm


def _wrap_accepted(X: np.ndarray, step_index: int) -> PolygonalCurve:
    if _shoelace(np.asarray(X, dtype=float)) <= 0.0:
        raise SchemeError(f"orientation lost at step {step_index}")
    return PolygonalCurve(X)


def _accept(state: SchemeState, it: NewtonIterate, iters: int, norm: float, mode: str) -> Tuple[SchemeState, StepReport]:
    curve = _wrap_accepted(it.X, state.step_index + 1)
    entry = HistoryEntry(
        curve=curve,
        kappa=np.array(it.kappa),
        lam=it.lam,
        eta=it.eta,
        L=perimeter(curve),
        A=signed_area(curve),
    )
    last = state.history[-1]
    report = StepReport(
        newton_iterations=iters,
        final_update_norm=norm,
        deltaL=(entry.L - last.L) / state.tau,
        lam=it.lam,
        eta=it.eta,
        mode=mode,
    )
    history = deque(state.history, maxlen=state.history.maxlen)
    history.append(entry)
    new_state = SchemeState(
        history=history,
        step_index=state.step_index + 1,
        tau=state.tau,
        A0=state.A0,
        L0=state.L0,
        startup_reports=list(state.startup_reports),
    )
    return new_state, report


def _predict_euler_curve(state: SchemeState, config: SchemeConfig, flavor: str, tau: float) -> PolygonalCurve:
    """Predictor curve: one Euler-type step of the matching family, solved to
    the same tolerance; only the curve is kept and its Newton iterations are
    not counted in any StepReport."""
    ctx = _euler_context(state, flavor)
    it, _, _ = _solve_step(state, config, ctx, state.history[-1].curve, tau=tau, tau_scalable=True)
    return _wrap_accepted(it.X, state.step_index + 1)


def step_sp_euler(state: SchemeState, config: SchemeConfig) -> Tuple[SchemeState, StepReport]:
    """Backward Euler step with both conservation laws, reference geometry on
    the current curve."""
    _require_history(state, 1)
    ctx = _euler_context(state, "sp")
    it, iters, norm = _solve_step(state, config, ctx, state.history[-1].curve, tau_scalable=True)
    return _accept(state, it, iters, norm, "SP")


def step_pd_euler(state: SchemeState, config: SchemeConfig) -> Tuple[SchemeState, StepReport]:
    """Backward Euler step of the perimeter-decreasing formulation (single
    multiplier lam, no area equation)."""
    _require_history(state, 1)
    ctx = _euler_context(state, "pd")
    it, iters, norm = _solve_step(state, config, ctx, state.history[-1].curve, tau_scalable=True)
    return _accept(state, it, iters, norm, "PD")


def step_sp_cn(state: SchemeState, config: SchemeConfig) -> Tuple[SchemeState, StepReport]:
    """Crank-Nicolson step: reference geometry from a half-step Euler
    predictor, unknowns entering all equations as averages with the previous
    level, perimeter law on the stored perimeters."""
    _require_history(state, 1)
    last = state.history[-1]
    half_curve = _predict_euler_curve(state, config, "sp", 0.5 * state.tau)
    ctx = SchemeContext(
        delta0=1.0,
        xhist=-np.array(last.curve.vertices),
        alpha=0.5,
        kappa_off=0.5 * np.array(last.kappa),
        lambda_off=0.5 * last.lam,
        eta_off=0.5 * last.eta,
        alpha_x=0.5,
        x_off=0.5 * np.array(last.curve.vertices),
        use_perimeter=True,
        dL0=1.0,
        Lhist=-last.L,
        use_area=True,
        A0=state.A0,
    )
    it, iters, norm = _solve_step(state, config, ctx, half_curve)
    return _accept(state, it, iters, norm, "SP")


def _bdf2_parts(state: SchemeState) -> Tuple[HistoryEntry, HistoryEntry, np.ndarray]:
    newest, older = state.history[-1], state.history[-2]
    xhist = -2.0 * np.array(newest.curve.vertices) + 0.5 * np.array(older.curve.vertices)
    return newest, older, xhist


def _step_sp_bdf2_impl(state: SchemeState, config: SchemeConfig, variant: bool) -> Tuple[SchemeState, StepReport]:
    _require_history(state, 2)
    newest, older, xhist = _bdf2_parts(state)
    ref_curve = _predict_euler_curve(state, config, "sp", state.tau)
    if variant:
        dL0, Lhist = 1.0, -newest.L
    else:
        dL0, Lhist = 1.5, -2.0 * newest.L + 0.5 * older.L
    ctx = SchemeContext(
        delta0=1.5,
        xhist=xhist,
        use_perimeter=True,
        dL0=dL0,
        Lhist=Lhist,
        use_area=True,
        A0=state.A0,
    )
    it, iters, norm = _solve_step(state, config, ctx, ref_curve)
    return _accept(state, it, iters, norm, "SP")


def step_sp_bdf2(state: SchemeState, config: SchemeConfig) -> Tuple[SchemeState, StepReport]:
    """BDF2 step with both conservation laws; the perimeter law uses the same
    BDF2 combination of stored perimeters, which is what keeps the scheme at
    full second order."""
    return _step_sp_bdf2_impl(state, config, variant=False)


def step_sp_bdf2_variant(state: SchemeState, config: SchemeConfig) -> Tuple[SchemeState, StepReport]:
    """Like step_sp_bdf2 but with a first-order backward difference in the
    perimeter law only; still structure preserving, but drops to reduced
    convergence order.  Provided as the negative control for order tests."""
    return _step_sp_bdf2_impl(state, config, variant=True)


def step_pd_bdf2(state: SchemeState, config: SchemeConfig) -> Tuple[SchemeState, StepReport]:
    """BDF2 step of the perimeter-decreasing formulation."""
    _require_history(state, 2)
    newest, older, xhist = _bdf2_parts(state)
    ref_curve = _predict_euler_curve(state, config, "pd", state.tau)
    ctx = SchemeContext(
        delta0=1.5,
        xhist=xhist,
        use_perimeter=True,
        dL0=1.5,
        Lhist=-2.0 * newest.L + 0.5 * older.L,
        use_area=False,
        A0=state.A0,
    )
    it, iters, norm = _solve_step(state, config, ctx, ref_curve)
    return _accept(state, it, iters, norm, "PD")


def _ap_reference(state: SchemeState, config: SchemeConfig, k: int) -> PolygonalCurve:
    # reference geometry for an order-k AP step: one step of the order-(k-1)
    # scheme (recursing down to order 1, whose reference is the current curve)
    sub_state, _ = step_ap_bdfk(state, config, k - 1)
    return sub_state.history[-1].curve


def step_ap_bdfk(state: SchemeState, config: SchemeConfig, k: int) -> Tuple[SchemeState, StepReport]:
    """Order-k BDF step of the area-preserving formulation (multiplier eta
    only, no perimeter equation); k = 1 is backward Euler on the current
    curve, k >= 2 uses a one-step lower-order predictor as reference."""
    if not 1 <= k <= 4:
        raise ValueError(f"AP scheme order must be in 1..4, got {k}")
    _require_history(state, k)
    if k == 1:
        ctx = _euler_context(state, "ap")
        ref_curve = state.history[-1].curve
    else:
        delta = [float(c) for c in bdf_coefficients(k)]
        entries = list(state.history)[-k:]  # oldest .. newest
        xhist = np.zeros_like(np.array(entries[-1].curve.vertices))
        for i in range(1, k + 1):
            xhist += delta[i] * np.array(entries[k - i].curve.vertices)
        ref_curve = _ap_reference(state, config, k)
        ctx = SchemeContext(
            delta0=delta[0],
            xhist=xhist,
            use_perimeter=False,
            use_area=True,
            A0=state.A0,
        )
    it, iters, norm = _solve_step(state, config, ctx, ref_curve, tau_scalable=(k == 1))
    return _accept(state, it, iters, norm, "AP")


_STEP_DISPATCH = {
    "sp-euler": step_sp_euler,
    "sp-cn": step_sp_cn,
    "sp-bdf2": step_sp_bdf2,
    "sp-bdf2-variant": step_sp_bdf2_variant,
    "pd-bdf2": step_pd_bdf2,
    "ap-bdf1": lambda s, c: step_ap_bdfk(s, c, 1),
    "ap-bdf2": lambda s, c: step_ap_bdfk(s, c, 2),
    "ap-bdf3": lambda s, c: step_ap_bdfk(s, c, 3),
    "ap-bdf4": lambda s, c: step_ap_bdfk(s, c, 4),
}


def _initial_state(config: SchemeConfig) -> SchemeState:
    curve0 = config.make_initial_curve()
    kappa0 = initial_curvature(curve0)
    entry0 = HistoryEntry(
        curve=curve0,
        kappa=kappa0,
        lam=0.0,
        eta=0.0,
        L=perimeter(curve0),
        A=signed_area(curve0),
    )
    return SchemeState(
        history=deque([entry0], maxlen=5),
        step_index=0,
        tau=config.tau,
        A0=entry0.A,
        L0=entry0.L,
    )


def _substepped_startup(config: SchemeConfig, k: int) -> SchemeState:
    """History for an order-k AP run: cover [0, (k-1) tau] with the order
    (k-1) scheme at substep sigma = tau / n_sub, n_sub = ceil(tau^(-1/(k-1))),
    so the startup error sigma^(k-1) <= tau^k; every n_sub-th substate becomes
    a history level, and each tau interval gets one aggregated StepReport."""
    tau = config.tau
    n_sub = max(1, math.ceil(tau ** (-1.0 / (k - 1)) - 1e-12))
    sigma = tau / n_sub
    sub_cfg = replace(config, scheme=f"ap-bdf{k - 1}", tau=sigma, T=(k - 1) * tau, gamma=0.0)
    sub_state = startup(sub_cfg)
    entry0 = sub_state.history[0] if len(sub_state.history) == sub_state.step_index + 1 else None
    if entry0 is None:
        raise SchemeError("substepped startup lost its initial level")

    total = (k - 1) * n_sub
    captures = {0: entry0}
    iters = {j: 0 for j in range(1, k)}
    norms = {j: 0.0 for j in range(1, k)}

    def interval(substep: int) -> int:
        return min(k - 1, (substep + n_sub - 1) // n_sub)

    # substeps already covered by the nested startup of the sub-scheme
    for idx, rep in enumerate(sub_state.startup_reports, start=1):
        iters[interval(idx)] += rep.newton_iterations
        norms[interval(idx)] = rep.final_update_norm
    base = sub_state.step_index - len(sub_state.history) + 1
    for j in range(1, k):
        s = j * n_sub
        if s <= sub_state.step_index:
            captures[j] = sub_state.history[s - base]

    for s in range(sub_state.step_index + 1, total + 1):
        sub_state, rep = step_ap_bdfk(sub_state, sub_cfg, k - 1)
        j = interval(s)
        iters[j] += rep.newton_iterations
        norms[j] = rep.final_update_norm
        if s % n_sub == 0:
            captures[s // n_sub] = sub_state.history[-1]

    reports = [
        StepReport(
            newton_iterations=iters[j],
            final_update_norm=norms[j],
            deltaL=(captures[j].L - captures[j - 1].L) / tau,
            lam=0.0,
            eta=captures[j].eta,
            mode="AP",
        )
        for j in range(1, k)
    ]
    return SchemeState(
        history=deque((captures[j] for j in range(k)), maxlen=5),
        step_index=k - 1,
        tau=tau,
        A0=entry0.A,
        L0=entry0.L,
        startup_reports=reports,
    )


def startup(config: SchemeConfig) -> SchemeState:
    """Initial SchemeState with history filled to the scheme's depth.

    Level 0 uses the generated curve with least-squares curvature and zero
    multipliers.  Two-level schemes take one Euler-type step of the matching
    family; order 3 and 4 AP schemes substep with the next-lower order (see
    _substepped_startup).  The steps taken here are recorded per tau interval
    in state.startup_reports.
    """
    depth = config.history_depth
    if depth >= 3:
        return _substepped_startup(config, depth)
    state = _initial_state(config)
    if depth == 1:
        return state
    if config.scheme in ("sp-bdf2", "sp-bdf2-variant"):
        state, report = step_sp_euler(state, config)
    elif config.scheme == "pd-bdf2":
        state, report = step_pd_euler(state, config)
    else:  # ap-bdf2
        state, report = step_ap_bdfk(state, config, 1)
    state.startup_reports = [report]
    return state


class Snapshot(NamedTuple):
    """A captured time level: the exact grid time, curve and curvature."""

    t: float
    curve: PolygonalCurve
    kappa: np.ndarray


@dataclass
class RunResult:
    """Outcome of a full run.  On a step failure the exception is stored in
    ``failure`` and the series/snapshots keep everything completed before it."""

    series: DiagnosticsSeries
    snapshots: List[Snapshot]
    state: Optional[SchemeState]
    switch_time: Optional[float]
    forced_switch: bool
    failure: Optional[Exception]

    @property
    def ok(self) -> bool:
        return self.failure is None


def _diag_row(t: float, entry: HistoryEntry, state: SchemeState, newton_iters: int, deltaL: float, lam: float, eta: float, mode: str) -> DiagnosticsRow:
    return DiagnosticsRow(
        t=t,
        L_norm=entry.L / state.L0,
        dA=(entry.A - state.A0) / state.A0,
        lam=lam,
        eta=eta,
        psi=mesh_ratio(entry.curve),
        newton_iters=newton_iters,
        deltaL=deltaL,
        mode=mode,
    )


def run(config: SchemeConfig, snapshot_times: Sequence[float] = ()) -> RunResult:
    """Advance the configured scheme from 0 to T, with the modification
    algorithm active for SP schemes when gamma > 0.

    Snapshot times are rounded to the nearest completed step; the recorded t
    is the actual grid time.  Numerical failures do not raise: the partial
    series, snapshots and state are returned with ``failure`` set.
    """
    tau = config.tau
    n_steps = config.n_steps
    snap_set = {min(n_steps, max(0, int(round(t / tau)))) for t in snapshot_times}
    mode0 = config.kind
    gamma = config.gamma_value
    partner = AP_PARTNER.get(config.scheme)
    ap_order = _HISTORY_DEPTH[partner] if partner else None

    rows: List[DiagnosticsRow] = []
    snapshots: List[Snapshot] = []
    switched = False
    switch_time: Optional[float] = None
    forced = False

    def fail_result(state: Optional[SchemeState], exc: Exception) -> RunResult:
        series = DiagnosticsSeries(rows=rows, switch_time=switch_time, forced_switch=forced)
        return RunResult(series, snapshots, state, switch_time, forced, exc)

    def degenerate(exc: Exception) -> bool:
        # the constant-curvature border degeneracy, either detected exactly in
        # the Schur complement or showing up as a Newton stall at the rounding
        # floor just above tol
        if isinstance(exc, EquilibriumDegeneracyError):
            return True
        return isinstance(exc, NewtonDivergenceError) and exc.last_norm <= _STALL_FACTOR * config.tol

    try:
        state = startup(config)
    except (SchemeError, SolverError) as exc:
        if degenerate(exc) and mode0 == "SP" and gamma > 0:
            switched, forced, switch_time = True, True, 0.0
            state = startup(replace(config, scheme=AP_PARTNER[config.scheme]))
        else:
            init = _initial_state(config)
            rows.append(_diag_row(0.0, init.history[0], init, 0, 0.0, 0.0, 0.0, mode0))
            return fail_result(init, exc)

    base = state.step_index - len(state.history) + 1  # always 0 after startup
    rows.append(_diag_row(0.0, state.history[0 - base], state, 0, 0.0, 0.0, 0.0, mode0))
    for j, rep in enumerate(state.startup_reports, start=1):
        entry = state.history[j - base]
        rows.append(_diag_row(j * tau, entry, state, rep.newton_iterations, rep.deltaL, rep.lam, rep.eta, rep.mode))
        if not switched and mode0 == "SP" and gamma > 0 and abs(rep.deltaL) <= gamma:
            switched, switch_time = True, j * tau
    for idx in sorted(i for i in snap_set if i <= state.step_index):
        entry = state.history[idx - base]
        snapshots.append(Snapshot(idx * tau, entry.curve, np.array(entry.kappa)))

    failure: Optional[Exception] = None
    while state.step_index < n_steps:
        try:
            if switched:
                k = min(ap_order, len(state.history))
                state, rep = step_ap_bdfk(state, config, k)
            else:
                state, rep = _STEP_DISPATCH[config.scheme](state, config)
        except (SchemeError, SolverError) as exc:
            if degenerate(exc) and not switched and mode0 == "SP" and gamma > 0:
                # the SP system degenerated at equilibrium: switch and retry
                switched, forced = True, True
                switch_time = state.step_index * tau
                continue
            failure = exc
            break
        m = state.step_index
        entry = state.history[-1]
        rows.append(_diag_row(m * tau, entry, state, rep.newton_iterations, rep.deltaL, rep.lam, rep.eta, rep.mode))
        if m in snap_set:
            snapshots.append(Snapshot(m * tau, entry.curve, np.array(entry.kappa)))
        if not switched and mode0 == "SP" and gamma > 0 and abs(rep.deltaL) <= gamma:
            switched, switch_time = True, m * tau

    series = DiagnosticsSeries(rows=rows, switch_time=switch_time, forced_switch=forced)
    return RunResult(series, snapshots, state, switch_time, forced, failure)


def run_modified(config: SchemeConfig, snapshot_times: Sequence[float] = ()) -> RunResult:
    """The modification algorithm: an SP scheme with threshold-triggered
    permanent switch to its AP partner.  Requires an SP-type config; `run`
    accepts any scheme."""
    if config.kind != "SP":
        raise ValueError(f"run_modified requires an SP scheme, got '{config.scheme}'")
    return run(config, snapshot_times)
