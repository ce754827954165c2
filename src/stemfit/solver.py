"""Constrained least-squares estimation of the attachment point.

A run is three stages in a row, each allowed ``max_iterations_per_run``
iterations. SLSQP (scipy's, with the analytic cost gradient and constraint
Jacobian) starts from the run's start on the tension constraints near their
boundary; if its point breaks one it left out, it runs again from the same
start on all of them. Both calls solve in variables scaled by the cost
Hessian at the run's start (``_metric``), so that SLSQP's initial identity
quasi-Newton matrix has the cost's curvature.
Unless that point is already certified, an active-set Newton polish then
drives the KKT residual below the convergence gate.
Everything that judges a point (the certificate, the polish, the choice of
the best iterate) reads all constraints. Polish steps are accepted on
KKT-residual decrease rather than cost decrease, because cost differences
near the optimum fall below double-precision resolution long before the
gradient does.

``fit`` is the reseeding schedule, one loop of runs: while the best mean
squared error stays above ``mse_target``, the next run is seeded at the
previous run's best iterate, up to ``max_restarts`` times. Each run returns
its best iterate, its iteration count and the points it noted for the trace;
the fit's certificate is read off the best iterate of all runs.

scipy is loaded by a process's first fit, inside its timing: ``minimize``
and ``nnls`` are imported at their first call (``_FromScipyOptimize``),
and scipy's OpenBLAS is looked up when the first fit pins its thread count
(``_blas_threads``). Importing this module loads numpy only.
"""

import functools
import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import EvaluationFailureError, SingularityError
from .geometry import Vec3, finite_number
from .spring_model import (
    Trial,
    TrialArrays,
    constraint_values_jacobian,
    cost_and_gradient,
    point_terms,
    terms_constraint_jacobian,
    terms_constraint_values,
    terms_cost,
    terms_gradient,
    terms_hessian,
)

# Converged fits certify a projected-gradient norm below this (N^2/m) and a
# constraint violation within SolverConfig.constraint_tolerance.
KKT_GRADIENT_TOL = 1e-6
# Constraints within this of their boundary (m) join multiplier estimation.
_ACTIVE_WIDTH = 1e-6
# A run hands SLSQP only the constraints within this of their boundary (m)
# at its start.
_WORKING_SET_SLACK = 1e-3
_SLSQP_FTOL = 1e-12
# The metric floors each Hessian eigenvalue's size at this fraction of the
# largest one's.
_METRIC_FLOOR = 1e-6
_MAX_HALVINGS = 30
# Upper limits of the two SolverConfig counts. SLSQP's iteration count is a C
# integer (2**63 fails inside scipy), and unbounded restarts can run forever.
MAX_ITERATIONS_PER_RUN = 1_000_000
MAX_RESTARTS = 1_000


class _FromScipyOptimize:
    """The function ``name`` of ``scipy.optimize``, imported at its first
    call, so that importing stemfit does not load scipy."""

    __slots__ = ("_name", "_function")

    def __init__(self, name: str):
        self._name = name
        self._function = None

    def __call__(self, *args, **kwargs):
        if self._function is None:
            self._function = getattr(importlib.import_module("scipy.optimize"), self._name)
        return self._function(*args, **kwargs)


# perfbench/tracing.py wraps these two names from outside, so they are bound
# once and never rebound; not being functions, they escape its layer loop,
# which would wrap nnls a second time.
_scipy_minimize = _FromScipyOptimize("minimize")
nnls = _FromScipyOptimize("nnls")


@functools.cache
def _blas_threads():
    """The thread-count getter and setter of the OpenBLAS that scipy (and so
    SLSQP) links, or None when scipy links another BLAS. Loads scipy's BLAS
    at the first call."""
    import ctypes

    import scipy.linalg.cython_blas

    try:
        blas = ctypes.CDLL(scipy.linalg.cython_blas.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(blas, prefix + "_get_num_threads", None)
        put = getattr(blas, prefix + "_set_num_threads", None)
        if get is not None and put is not None:
            return get, put
    return None


def _load_scipy():
    """Load all a fit uses of scipy. A batch calls this before it forks its
    workers, so that they share scipy's pages rather than each load it."""
    importlib.import_module("scipy.optimize")
    _blas_threads()


@contextmanager
def _one_blas_thread():
    """Run with scipy's OpenBLAS on one thread, then restore its count.

    OpenBLAS splits some of SLSQP's calls by its thread count, so the count
    changes a fit's bits and can flip its certificate; on one thread a fit
    has the same bits on every machine, and batch workers do not contend
    for cores. Does nothing where scipy links another BLAS.
    """
    functions = _blas_threads()
    if functions is None:
        yield
        return
    get, put = functions
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


@dataclass(frozen=True)
class SolverConfig:
    """The reseeding schedule's MSE target and limits, and the constraint
    violation (m) a converged fit may keep.

    Every field must be a finite number; the two counts must be integers of
    at most ``MAX_RESTARTS`` and ``MAX_ITERATIONS_PER_RUN``.
    """

    mse_target: float = 5.0
    max_restarts: int = 5
    max_iterations_per_run: int = 300
    constraint_tolerance: float = 1e-8

    def __post_init__(self):
        for name in ("max_restarts", "max_iterations_per_run"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.max_restarts <= MAX_RESTARTS:
            raise ValueError(f"max_restarts must be in [0, {MAX_RESTARTS}]")
        if not 1 <= self.max_iterations_per_run <= MAX_ITERATIONS_PER_RUN:
            raise ValueError(f"max_iterations_per_run must be in [1, {MAX_ITERATIONS_PER_RUN}]")
        for name in ("mse_target", "constraint_tolerance"):
            if not (finite_number(name, getattr(self, name)) > 0.0):
                raise ValueError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        """Build from a parsed JSON object; any malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("solver config must be a JSON object")
        unknown = set(data) - {field.name for field in fields(cls)}
        if unknown:
            raise ValueError(f"unknown solver config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a full reseeding schedule."""

    r_o_hat: Vec3
    final_mse: float
    iterations_total: int
    restarts_used: int
    runtime: float
    converged: bool
    max_constraint_violation: float
    projected_gradient: float
    trace: tuple[tuple[int, Vec3, float], ...] | None = None


class _Model:
    """The model at one trial, evaluated lazily at its latest point.

    SLSQP asks for the cost and the constraint values at every point it
    tries, but for the gradient and the constraint Jacobian only at the
    points it accepts: in the scaled variables of ``_metric``, nearly all of
    them on success fits, fewer where the line search backtracks. So the
    model keeps one point's per-sample terms (``point_terms``) and computes
    each quantity from them the first time it is asked for. A full
    evaluation at a point the model has not seen (a run's start, a polish
    trial point) goes to the public kernels. The key is the point's exact
    bytes, because SLSQP updates its point in place.
    """

    __slots__ = ("arrays", "_key", "_terms", "_cost", "_grad", "_values", "_jac")

    def __init__(self, arrays: TrialArrays):
        self.arrays = arrays
        self._key = None

    def _at(self, x: np.ndarray) -> bool:
        """Make ``x`` the model's point; True when it was not already."""
        key = x.tobytes()
        if key == self._key:
            return False
        self._key = key
        self._terms = self._cost = self._grad = self._values = self._jac = None
        return True

    def _point_terms(self, x: np.ndarray):
        if self._terms is None:
            self._terms = point_terms(x, self.arrays)
        return self._terms

    def value(self, x: np.ndarray) -> float:
        self._at(x)
        if self._cost is None:
            self._cost = terms_cost(self._point_terms(x))
        return self._cost

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self._at(x)
        if self._grad is None:
            self._grad = terms_gradient(self._point_terms(x), self.arrays)
        return self._grad

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        self._at(x)
        if self._values is None:
            self._values = terms_constraint_values(self._point_terms(x), self.arrays)
        return self._values

    def constraint_jacobian(self, x: np.ndarray) -> np.ndarray:
        self._at(x)
        if self._jac is None:
            self._jac = terms_constraint_jacobian(self._point_terms(x))
        return self._jac

    def hessian(self, x: np.ndarray) -> np.ndarray:
        self._at(x)
        return terms_hessian(self._point_terms(x), self.arrays)

    def evaluate(self, x: np.ndarray):
        """Cost, gradient, constraint values and constraint Jacobian at ``x``."""
        if self._at(x):
            self._cost, self._grad = cost_and_gradient(x, self.arrays)
            self._values, self._jac = constraint_values_jacobian(x, self.arrays)
        return self.value(x), self.gradient(x), self.constraint_values(x), self.constraint_jacobian(x)


class _Iterate:
    """Fully evaluated candidate point."""

    __slots__ = ("x", "cost", "grad", "values", "jac", "kkt", "lam", "active", "viol")

    def __init__(self, x: np.ndarray, model: _Model):
        self.x = x
        self.cost, self.grad, self.values, self.jac = model.evaluate(x)
        # Finite but extreme trials (numbers near 1e154 and beyond) overflow
        # here, and no fit may certify or return such a point. A finite cost
        # means every sample distance was finite, so the constraint values
        # and Jacobian are finite too, as nnls requires.
        finite = math.isfinite(self.cost) and np.isfinite(self.grad).all()
        if finite:
            self.kkt, self.lam, self.active = _projected_gradient(
                self.grad, self.values, self.jac
            )
        if not (finite and math.isfinite(self.kkt)):
            raise EvaluationFailureError("model evaluation overflowed at an iterate")
        self.viol = max(0.0, float(self.values.max()))

    def meets(self, constraint_tolerance: float) -> bool:
        return self.kkt <= KKT_GRADIENT_TOL and self.viol <= constraint_tolerance

    def merit(self, constraint_tolerance: float) -> float:
        return max(self.kkt / KKT_GRADIENT_TOL, self.viol / constraint_tolerance)


def _projected_gradient(grad, values, jac):
    """KKT stationarity residual: distance from -grad to the cone spanned by
    near-active constraint normals with nonnegative multipliers."""
    active = np.flatnonzero(values >= -_ACTIVE_WIDTH)
    if active.size == 0:
        return float(np.linalg.norm(grad)), np.zeros(0), active
    lam, rnorm = nnls(jac[active].T, -grad)
    return float(rnorm), lam, active


def _better(a: _Iterate, b: _Iterate, ctol: float) -> _Iterate:
    """Prefer feasible iterates, then lower cost, then lower KKT residual.

    Costs are compared with a tie band: two points whose constraint
    violations both sit below tolerance can differ in cost by up to the
    gradient norm times that tolerance without either being meaningfully
    better, and inside that band the KKT residual decides. Without the band
    a barely-infeasible stall point beats the true boundary optimum forever.
    """
    a_feas = a.viol <= ctol
    b_feas = b.viol <= ctol
    if a_feas != b_feas:
        return a if a_feas else b
    grad_scale = max(float(np.linalg.norm(a.grad)), float(np.linalg.norm(b.grad)))
    tie = 1e-12 * (1.0 + min(a.cost, b.cost)) + ctol * grad_scale
    if abs(a.cost - b.cost) > tie:
        return a if a.cost < b.cost else b
    return a if a.kkt <= b.kkt else b


def _lagrangian_hessian(it: _Iterate, model: _Model) -> np.ndarray:
    """Cost Hessian plus the curvature of the active sphere constraints.

    The constraint term matters whenever the multipliers are large (heavily
    model-violating trials): it is negative along the boundary and omitting
    it makes Newton steps two orders of magnitude too timid.
    """
    arrays = model.arrays
    hess = model.hessian(it.x)
    eye = np.eye(3)
    for lam_i, t in zip(it.lam, it.active):
        if lam_i <= 0.0:
            continue
        d = it.x - arrays.grasp_world[t]
        dist = float(np.linalg.norm(d))
        unit = d / dist
        # hessian of (l - |d|) is -(I - u u^T) / |d|
        hess = hess - lam_i * (eye - np.outer(unit, unit)) / dist
    return hess


def _kkt_step(hess, it: _Iterate):
    """Equality-constrained Newton step on the current working set.

    The working set starts from violated constraints plus active ones with a
    positive multiplier estimate; constraints whose solved multiplier comes
    out negative are dropped one at a time. A singular system (two equal
    working-set rows, say) is solved by least squares; a non-finite one gives
    a NaN step.
    """
    work = set(np.flatnonzero(it.values > 0.0).tolist())
    for i, idx in enumerate(it.active):
        if it.lam[i] > 1e-14:
            work.add(int(idx))
    work = sorted(work)
    while True:
        m = len(work)
        kkt_mat = np.zeros((3 + m, 3 + m))
        kkt_mat[:3, :3] = hess
        if m:
            rows = it.jac[work]
            kkt_mat[:3, 3:] = rows.T
            kkt_mat[3:, :3] = rows
        rhs = np.concatenate([-it.grad, -it.values[work]])
        if not (np.isfinite(kkt_mat).all() and np.isfinite(rhs).all()):
            return np.full(3, np.nan)  # lstsq can spin on one; a NaN step ends the polish
        try:
            sol = np.linalg.solve(kkt_mat, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt_mat, rhs, rcond=None)[0]
        if not np.all(np.isfinite(sol)):
            sol = np.linalg.lstsq(kkt_mat, rhs, rcond=None)[0]
        step, lam = sol[:3], sol[3:]
        if m == 0 or lam.min() >= -1e-12:
            return step
        work.pop(int(np.argmin(lam)))


def _on_sphere(x: np.ndarray, centre: np.ndarray, radius: float) -> np.ndarray:
    """``x`` moved radially onto the sphere; its centre raises
    ``SingularityError``, having no direction."""
    offset = x - centre
    dist = float(np.linalg.norm(offset))
    if dist == 0.0:
        raise SingularityError("polish trial point at the centre of its binding sphere")
    return centre + radius * offset / dist


def _polish(start: _Iterate, model: _Model, ctol: float, budget: int):
    """Damped active-set Newton refinement; returns (best iterate, iterations used).

    Each Newton step is halved until it lowers the merit without new
    constraint violation beyond tolerance; the polish ends when no halving
    is accepted, the merit stalls or ``budget`` steps are taken. Steps near
    the optimum are legitimately tiny, so stagnation is judged on the
    merit's decay rate, not on step size.

    When exactly one constraint has a positive multiplier, each trial point
    is moved radially onto that sample's sphere before it is evaluated: a
    step along the sphere's tangent plane leaves the sphere by O(|step|^2),
    which can drop the binding constraint out of the active set. A trial
    point at the sphere's centre is treated like a point on a sample.
    """
    arrays = model.arrays
    current = start
    iterations = 0
    stalled = 0
    while iterations < budget and current.merit(ctol) > 0.5:
        iterations += 1
        step = _kkt_step(_lagrangian_hessian(current, model), current)
        step_norm = float(np.linalg.norm(step))
        if not math.isfinite(step_norm) or step_norm == 0.0:
            break
        binding = current.active[current.lam > 0.0]
        centre = arrays.grasp_world[binding[0]] if binding.size == 1 else None
        accepted = None
        alpha = 1.0
        viol_cap = max(current.viol, ctol)
        for _ in range(_MAX_HALVINGS):
            x = current.x + alpha * step
            try:
                if centre is not None:
                    x = _on_sphere(x, centre, arrays.l)
                trial_it = _Iterate(x, model)
            except SingularityError:
                alpha *= 0.5
                continue
            if trial_it.merit(ctol) < current.merit(ctol) and trial_it.viol <= viol_cap:
                accepted = trial_it
                break
            alpha *= 0.5
        if accepted is None:
            break
        previous_merit = current.merit(ctol)
        current = accepted
        if current.merit(ctol) > 0.9 * previous_merit:
            stalled += 1
            if stalled >= 2:
                break
        else:
            stalled = 0
    # acceptance is monotone in merit, so the last iterate is the best one
    return current, iterations


def _initial_guess_array(arrays: TrialArrays) -> np.ndarray:
    """Initial fruit position plus one resting length along the mean measured
    force.

    The offset puts the guess on the first sample's tension-constraint
    boundary and away from the model singularity. Falls back to the world z
    axis when the forces average out to nearly zero.
    """
    mean_force = arrays.force_world.mean(axis=0)
    norm = float(np.linalg.norm(mean_force))
    direction = mean_force / norm if norm >= 1e-9 else np.array([0.0, 0.0, 1.0])
    return arrays.grasp_world[0] + arrays.l * direction


def _metric(model: _Model, x: np.ndarray) -> np.ndarray:
    """The matrix ``M`` of the change of variables ``x + M @ y`` in which
    SLSQP solves a run that starts at ``x``.

    SLSQP starts its quasi-Newton matrix at the identity, far below the
    cost's curvature (of order 2k^2). With ``M = V |L|^(-1/2)`` from the
    eigendecomposition ``V L V^T`` of the cost Hessian at ``x``, the identity
    is that Hessian's size in ``y``. Each ``|L|`` is floored at
    ``_METRIC_FLOOR`` of the largest; a Hessian that is not finite or is
    zero gives ``M = I``.
    """
    hess = model.hessian(x)
    if np.isfinite(hess).all():
        eigenvalues, vectors = np.linalg.eigh(hess)
        size = np.abs(eigenvalues)
        top = size.max()
        if 0.0 < top < math.inf:
            return vectors / np.sqrt(np.maximum(size, _METRIC_FLOOR * top))
    return np.eye(3)


def _minimize_arrays(
    model: _Model, x0: np.ndarray, config: SolverConfig
) -> tuple[_Iterate, int, list[tuple[int, _Iterate]]]:
    """One run from ``x0``: its best iterate, the iterations it used and the
    points it noted, each as the iterations used before it and its iterate.
    The caller has set numpy to ignore overflow, which ``_Iterate`` turns
    into an ``EvaluationFailureError``, as it does a singular start."""
    ctol = config.constraint_tolerance
    budget = config.max_iterations_per_run
    used = 0
    try:
        start = _Iterate(np.asarray(x0, dtype=float), model)
    except SingularityError as exc:
        raise EvaluationFailureError(
            "starting point coincides with a fruit position sample"
        ) from exc
    noted = [(0, start)]
    if start.meets(ctol):
        return start, 0, noted

    metric = _metric(model, start.x)

    def point(y):
        return start.x + metric @ y

    def sqp(rows):
        """SLSQP from the run's start on the tension constraints ``rows``,
        in the variables ``y`` of ``_metric``; the evaluated point it
        returns, or None when that point is not finite. A point on a sample
        raises ``SingularityError``."""
        nonlocal used
        res = _scipy_minimize(
            lambda y: model.value(point(y)),
            np.zeros(3),
            jac=lambda y: metric.T @ model.gradient(point(y)),
            method="SLSQP",
            constraints=[
                {
                    "type": "ineq",
                    # scipy wants >= 0 when feasible
                    "fun": lambda y: -model.constraint_values(point(y))[rows],
                    "jac": lambda y: -model.constraint_jacobian(point(y))[rows] @ metric,
                }
            ],
            options={
                "maxiter": budget,
                "ftol": _SLSQP_FTOL,
            },
        )
        used += max(int(res.nit), 1)
        x = point(res.x)
        if not np.all(np.isfinite(x)):
            return None
        return _Iterate(x, model)

    # SLSQP sees only the constraints near their boundary. A point that
    # breaks one it did not see is discarded, and SLSQP runs again from the
    # start on all of them, with the whole budget: cut short, that run can
    # stop far above the basin's floor.
    near = start.values >= -_WORKING_SET_SLACK
    try:
        reached = sqp(near)
        if reached is not None and (reached.values[~near] > 0.0).any():
            reached = sqp(slice(None))
    except SingularityError:
        reached = None  # the polish goes on from the start
    current = best = start
    if reached is not None:
        current = reached
        best = _better(best, current, ctol)
        noted.append((used, current))
    if not current.meets(ctol):
        # the polish gets the whole budget too: where SLSQP stalled, it may
        # need more steps than SLSQP left over
        polished, polish_used = _polish(current, model, ctol, budget)
        used += polish_used
        if polished is not current:
            best = _better(best, polished, ctol)
            noted.append((used, polished))
    return best, used, noted


def fit(
    trial: Trial,
    config: SolverConfig = SolverConfig(),
    *,
    collect_trace: bool = False,
) -> FitResult:
    """Full estimation schedule: one loop of runs, the first from the initial
    guess and each restart from the previous run's best iterate, while the
    best mean squared error stays above ``mse_target``.

    The returned point is the best iterate seen across runs (feasible ones
    preferred, then lowest cost), and the certificate is read off it;
    iteration counts and runtime aggregate over all runs. A model-evaluation
    failure (an overflow, or a run that starts on a fruit position sample)
    in the first run propagates as ``EvaluationFailureError``; in a restart
    it ends the schedule, still counted in ``restarts_used``, and adds
    nothing to the trace. The fit runs scipy's BLAS on one thread, so its
    bits do not depend on the machine (``_one_blas_thread``).
    """
    start = time.perf_counter()
    trace: list[tuple[int, Vec3, float]] = []
    iterations_total = 0
    restarts_used = 0
    best = None
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        model = _Model(TrialArrays.from_trial(trial))
        x0 = _initial_guess_array(model.arrays)
        while True:
            try:
                run_best, used, noted = _minimize_arrays(model, x0, config)
            except EvaluationFailureError:
                if best is None:
                    raise
                break
            if collect_trace:
                trace += [(iterations_total + k, Vec3.from_array(it.x), it.cost) for k, it in noted]
            iterations_total += used
            if best is None or _better(best, run_best, config.constraint_tolerance) is run_best:
                best = run_best
            if best.cost <= config.mse_target or restarts_used == config.max_restarts:
                break
            restarts_used += 1
            x0 = run_best.x

    return FitResult(
        r_o_hat=Vec3.from_array(best.x),
        final_mse=best.cost,
        iterations_total=iterations_total,
        restarts_used=restarts_used,
        runtime=time.perf_counter() - start,
        converged=best.meets(config.constraint_tolerance),
        max_constraint_violation=best.viol,
        projected_gradient=best.kkt,
        trace=tuple(trace) if collect_trace else None,
    )
