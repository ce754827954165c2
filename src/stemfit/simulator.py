"""Synthetic pull-trial generation against the spring-tether model.

Stands in for a physical data-collection rig: each trial draws an attachment
point and a hand orientation, pulls the hand back along the palm normal at
constant speed, and records the sensor-frame wrench the model produces,
optionally with per-axis Gaussian force noise and a compliant-grasp
perturbation that lets the fruit drift inside the hand under load.

The palm normal is the sensor frame's +z axis expressed in the world frame.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import SimulationConfigError
from .geometry import UnitQuaternion, Vec3, finite_number, rotate_rows
from .spring_model import Label, SampleColumns, SpringParams, Trial

_ZERO_COMPLIANCE = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
# generate_trial evaluates only the prefix of the pull window that the force
# cap needs, but a config whose cap is never reached costs the whole window
# before that is known, so a config whose window exceeds this many samples is
# rejected
MAX_WINDOW_SAMPLES = 1_000_000
# rows of the first window prefix generate_trial evaluates; each further
# prefix doubles it, up to the whole window
FIRST_PREFIX_ROWS = 1024
# Newton steps a compliant row may take before its equilibrium solve fails
_MAX_NEWTON_STEPS = 80
# numpy floating-point warnings the simulator turns off: a config that
# overflows or divides by zero is a SimulationConfigError instead
_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class SimConfig:
    """Physical and sampling parameters for synthetic trials.

    ``off_axis_angle_deg`` tilts the spring's rest direction away from the
    palm normal; 0 gives a pull straight along the stretch axis, larger
    angles lengthen the window needed to reach ``force_cap``.
    ``grasp_compliance`` is a symmetric PSD matrix (m/N) mapping sensor-frame
    force to fruit drift within the hand; failure-class corpus trials draw a
    random anisotropic compliance with eigenvalues in
    ``failure_compliance_range``.
    """

    k: float = 632.0
    l: float = 0.10
    pull_distance: float = 0.15
    pull_speed: float = 0.33
    sample_rate: float = 500.0
    force_cap: float = 5.0
    noise_sigma: float = 0.1
    grasp_compliance: tuple = _ZERO_COMPLIANCE
    attachment_region: tuple = (Vec3(0.4, -0.3, 0.2), Vec3(0.8, 0.3, 0.6))
    off_axis_angle_deg: float = 0.0
    failure_compliance_range: tuple = (0.002, 0.010)
    grasp_point: Vec3 = Vec3(0.0, 0.0, 0.05)
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "l", "pull_distance", "pull_speed", "sample_rate", "force_cap"):
            if not (finite_number(name, getattr(self, name)) > 0.0):
                raise ValueError(f"{name} must be positive")
        if finite_number("noise_sigma", self.noise_sigma) < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        window = float(self.pull_distance) * float(self.sample_rate) / float(self.pull_speed)
        if not window <= MAX_WINDOW_SAMPLES:
            raise ValueError(
                f"pull window exceeds {MAX_WINDOW_SAMPLES} samples; shorten "
                "pull_distance, lower sample_rate or raise pull_speed"
            )
        comp = np.asarray(self.grasp_compliance, dtype=float)
        if comp.shape != (3, 3):
            raise ValueError("grasp_compliance must be a 3x3 matrix")
        if not np.isfinite(comp).all():
            raise ValueError("grasp_compliance must be finite")
        if not np.allclose(comp, comp.T, atol=1e-12):
            raise ValueError("grasp_compliance must be symmetric")
        if np.linalg.eigvalsh(comp).min() < -1e-12:
            raise ValueError("grasp_compliance must be positive semidefinite")
        object.__setattr__(
            self, "grasp_compliance", tuple(tuple(float(v) for v in row) for row in comp)
        )
        lo, hi = self.attachment_region
        if not all(getattr(lo, a) < getattr(hi, a) for a in ("x", "y", "z")):
            raise ValueError("attachment_region must be a box with min < max per axis")
        if len(self.failure_compliance_range) != 2:
            raise ValueError("failure_compliance_range must be a pair [lo, hi]")
        clo, chi = (
            finite_number("failure_compliance_range", v) for v in self.failure_compliance_range
        )
        if not (0.0 < clo <= chi):
            raise ValueError("failure_compliance_range must satisfy 0 < lo <= hi")
        if not (0.0 <= finite_number("off_axis_angle_deg", self.off_axis_angle_deg) < 90.0):
            raise ValueError("off_axis_angle_deg must lie in [0, 90)")

    @property
    def compliance_matrix(self) -> np.ndarray:
        return np.asarray(self.grasp_compliance, dtype=float)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "pull_distance": self.pull_distance,
            "pull_speed": self.pull_speed,
            "sample_rate": self.sample_rate,
            "force_cap": self.force_cap,
            "noise_sigma": self.noise_sigma,
            "grasp_compliance": [list(row) for row in self.grasp_compliance],
            "attachment_region": {
                "min": [self.attachment_region[0].x, self.attachment_region[0].y, self.attachment_region[0].z],
                "max": [self.attachment_region[1].x, self.attachment_region[1].y, self.attachment_region[1].z],
            },
            "off_axis_angle_deg": self.off_axis_angle_deg,
            "failure_compliance_range": list(self.failure_compliance_range),
            "grasp_point": [self.grasp_point.x, self.grasp_point.y, self.grasp_point.z],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Build from a parsed JSON object; any malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("simulator config must be a JSON object")
        unknown = set(data) - set(cls().to_dict())
        if unknown:
            raise ValueError(f"unknown simulator config fields: {sorted(unknown)}")
        kwargs = dict(data)
        for name, convert in _NESTED_FIELDS.items():
            if name in kwargs:
                try:
                    kwargs[name] = convert(kwargs[name])
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{name}: malformed value ({exc!r})") from exc
        return cls(**kwargs)


def _numbers(name: str, values, length: int) -> tuple:
    """A JSON array of ``length`` finite numbers, as floats; a string, a
    boolean or any other non-number in it is a ValueError, as it is in a
    plain number field."""
    if not (isinstance(values, list) and len(values) == length):
        raise ValueError(f"{name} must be an array of {length} numbers")
    return tuple(float(finite_number(name, v)) for v in values)


# JSON form -> field value for the fields that are not plain numbers
_NESTED_FIELDS = {
    "grasp_compliance": lambda rows: tuple(_numbers("grasp_compliance", row, 3) for row in rows),
    "attachment_region": lambda box: (
        Vec3(*_numbers("attachment_region", box["min"], 3)),
        Vec3(*_numbers("attachment_region", box["max"], 3)),
    ),
    "failure_compliance_range": tuple,
    "grasp_point": lambda point: Vec3(*_numbers("grasp_point", point, 3)),
}


@dataclass(frozen=True)
class SimTrialRecord:
    """A generated trial plus the generation facts a consumer may want."""

    trial: Trial
    compliance_applied: bool


def sample_orientation(rng: np.random.Generator) -> UnitQuaternion:
    """Draw a hand orientation whose palm normal is area-uniform on the
    quarter sphere: elevation in [0, 90] degrees above horizontal (never with
    gravity), azimuth spanning the half-plane around +x, plus a uniform roll
    about the normal."""
    u = rng.uniform(size=3)
    elevation = math.asin(u[0])
    azimuth = -0.5 * math.pi + math.pi * u[1]
    roll = 2.0 * math.pi * u[2]
    normal = np.array(
        [
            math.cos(elevation) * math.cos(azimuth),
            math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation),
        ]
    )
    a, b = _perpendicular_basis(normal)
    col0 = math.cos(roll) * a + math.sin(roll) * b
    col1 = -math.sin(roll) * a + math.cos(roll) * b
    return UnitQuaternion.from_rotation_matrix(np.column_stack([col0, col1, normal]))


def _perpendicular_basis(unit: np.ndarray):
    ref = np.array([0.0, 0.0, 1.0])
    a = np.cross(ref, unit)
    if np.linalg.norm(a) < 1e-9:
        ref = np.array([1.0, 0.0, 0.0])
        a = np.cross(ref, unit)
    a = a / np.linalg.norm(a)
    return a, np.cross(unit, a)


def _rotate_about(vec: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return vec * c + np.cross(axis, vec) * s + axis * np.dot(axis, vec) * (1.0 - c)


def _norms(v: np.ndarray) -> np.ndarray:
    """Lengths (B, 1, 1) of a stack of 3-vectors held as (B, 3, 1) columns.

    A stacked dot product gives each vector the bits of np.linalg.norm of it
    alone; np.linalg.norm(v, axis=1) sums differently and can differ in the
    last bit.
    """
    return np.sqrt(v.transpose(0, 2, 1) @ v)


def _row_norms(v: np.ndarray) -> np.ndarray:
    return _norms(v[:, :, None])[:, 0, 0]


def _spring_forces(r_o: np.ndarray, fruit: np.ndarray, k: float, l: float) -> np.ndarray:
    d = r_o - fruit
    dist = _row_norms(d)
    return (k * (dist - l))[:, None] * d / dist[:, None]


def _cap_not_reached(config: SimConfig) -> SimulationConfigError:
    return SimulationConfigError(
        f"force cap {config.force_cap} N not reached within pull_distance "
        f"{config.pull_distance} m; lengthen the pull or soften the cap"
    )


@contextmanager
def _config_errors(trial_id: str):
    """Run with numpy's divide, overflow and invalid-value warnings off and
    turn an ArithmeticError or ValueError (LinAlgError included) into a
    SimulationConfigError naming the trial."""
    with np.errstate(**_QUIET):
        try:
            yield
        except (ArithmeticError, ValueError) as exc:
            raise SimulationConfigError(f"{trial_id}: {exc}") from exc


@dataclass(frozen=True)
class _Pull:
    """One trial's drawn pull: its config and generator, the attachment
    point, the hand pose, the fruit's start, the world-frame grasp compliance
    (None for a rigid grasp), the hand travel per sample and the number of
    rows in the pull window."""

    config: SimConfig
    rng: np.random.Generator
    trial_id: str
    r_o: np.ndarray
    orientation: UnitQuaternion
    rot: np.ndarray
    normal: np.ndarray
    fruit_start: np.ndarray
    comp_world: np.ndarray | None
    step_travel: float
    window: int


def _draw_pull(config: SimConfig, rng: np.random.Generator, trial_id: str) -> _Pull:
    with _config_errors(trial_id):
        lo = config.attachment_region[0].as_array()
        hi = config.attachment_region[1].as_array()
        r_o = rng.uniform(lo, hi)
        orientation = sample_orientation(rng)
        rot = orientation.rotation_matrix()
        normal = rot @ np.array([0.0, 0.0, 1.0])

        spring_axis = normal
        if config.off_axis_angle_deg > 0.0:
            a, b = _perpendicular_basis(normal)
            psi = rng.uniform(0.0, 2.0 * math.pi)
            tilt_axis = math.cos(psi) * a + math.sin(psi) * b
            spring_axis = _rotate_about(normal, tilt_axis, math.radians(config.off_axis_angle_deg))

        comp_sensor = config.compliance_matrix
        compliant = bool(np.any(comp_sensor != 0.0))
        step_travel = config.pull_speed * (1.0 / config.sample_rate)
        return _Pull(
            config=config,
            rng=rng,
            trial_id=trial_id,
            r_o=r_o,
            orientation=orientation,
            rot=rot,
            normal=normal,
            fruit_start=r_o - config.l * spring_axis,
            comp_world=rot @ comp_sensor @ rot.T if compliant else None,
            step_travel=step_travel,
            window=int(math.floor(config.pull_distance / step_travel)) + 1,
        )


def _rigid_pull(pull: _Pull):
    """True fruit positions and world-frame spring forces of a rigid pull
    from rest through the sample before the first whose noiseless force
    reaches ``force_cap``.

    The rows are evaluated on a prefix of the pull window that starts at
    ``FIRST_PREFIX_ROWS`` rows and doubles until it holds the cap. Every row
    comes from per-row arithmetic, so a prefix's rows have the bits of the
    same rows of the whole window.
    """
    config = pull.config
    size = 0
    while size < pull.window:
        size = min(pull.window, max(2 * size, FIRST_PREFIX_ROWS))
        travel = np.arange(size) * pull.step_travel
        rigid = pull.fruit_start - travel[:, None] * pull.normal
        forces = _spring_forces(pull.r_o, rigid, config.k, config.l)
        forces[0] = 0.0  # the fruit starts at rest
        capped = np.flatnonzero(_row_norms(forces) >= config.force_cap)
        if capped.size:
            n = int(capped[0])
            return rigid[:n], forces[:n]
    raise _cap_not_reached(config)


def _keep(state: SimpleNamespace, mask: np.ndarray) -> SimpleNamespace:
    return SimpleNamespace(**{name: value[mask] for name, value in vars(state).items()})


@np.errstate(**_QUIET)
def _compliant_pulls(pulls: list) -> list:
    """For each compliant pull, its true fruit positions and world-frame
    spring forces from rest through the sample before the first whose
    noiseless force reaches ``force_cap``, or the exception that ends it.

    A row's fruit position solves x = rigid + C f(x) by Newton, warm-started
    from the previous row's; plain fixed-point iteration diverges whenever k
    times the compliance exceeds one. A row is solved when its position
    residual is below 1e-13 m (force consistency well under 1e-9 N) and
    fails after ``_MAX_NEWTON_STEPS`` steps.

    The pulls advance in lockstep: each step evaluates every unfinished pull
    at its x with stacked arithmetic on (B, 3, 1) columns, whose ``@``,
    ``np.linalg.solve`` and ``_norms`` give each pull the bits of its own
    3-vector products, so a pull's rows do not depend on the pulls beside
    it. A solved row hands its x to the next row, which is checked at once
    with the same force. A singular Newton matrix ends only its own pull.
    Once a pull fails, the pulls after it are dropped (None): the first
    failure in trial order is the one raised.
    """
    if not pulls:
        return []
    outcomes = [None] * len(pulls)
    live = np.ones(len(pulls), dtype=bool)  # pulls whose outcome is still needed

    def end(index, outcome):
        outcomes[index] = outcome
        live[index] = False
        if isinstance(outcome, Exception):
            live[index:] = False

    def stack(values):  # vectors as (B, 3, 1) columns, scalars as (B, 1, 1)
        return np.array(values, dtype=float).reshape(len(pulls), -1, 1)

    eye = np.eye(3)
    s = SimpleNamespace(
        index=np.arange(len(pulls)),
        r_o=stack([p.r_o for p in pulls]),
        start=stack([p.fruit_start for p in pulls]),
        normal=stack([p.normal for p in pulls]),
        comp=np.array([p.comp_world for p in pulls], dtype=float).reshape(-1, 3, 3),
        k=stack([p.config.k for p in pulls]),
        l=stack([p.config.l for p in pulls]),
        cap=stack([p.config.force_cap for p in pulls]),
        step=stack([p.step_travel for p in pulls]),
        last_row=stack([p.window - 1 for p in pulls]),
        row=np.zeros((len(pulls), 1, 1)),
        # Newton steps taken, over all pulls, when each pull's row began
        row_begun=np.zeros(len(pulls), dtype=np.int64),
    )
    s.x = s.start.copy()
    s.rigid = s.start - (s.row * s.step) * s.normal
    # oldest_row never exceeds the smallest row_begun, so no row reaches the
    # step limit before newton_steps - oldest_row does
    newton_steps = oldest_row = 0
    # (pull indices, fruit rows, force rows) of the rows each step solves
    log = [(np.empty(0, dtype=np.int64), np.empty((0, 3, 1)), np.empty((0, 3, 1)))]
    while s.index.size:
        d = s.r_o - s.x
        s.dist = _norms(d)
        s.unit = d / s.dist
        f = (s.k * (s.dist - s.l)) * s.unit
        cf = s.comp @ f
        s.h = s.x - s.rigid - cf
        solved = _norms(s.h) < 1e-13
        ended = False
        if np.count_nonzero(solved):
            capped = _norms(f) >= s.cap
        while np.count_nonzero(solved):
            rows = solved.ravel()
            log.append((s.index[rows], s.x[rows], f[rows]))
            stop = rows & (capped | (s.row == s.last_row)).ravel()
            if np.count_nonzero(stop):
                for i in np.flatnonzero(stop):
                    if capped[i, 0, 0]:
                        end(s.index[i], int(s.row[i, 0, 0]))  # its rows before the capped one
                    else:
                        end(s.index[i], _cap_not_reached(pulls[s.index[i]].config))
                s.x[stop] = np.nan  # so that no residual test passes for it again
                ended = True
            s.row += solved
            s.row_begun[rows] = newton_steps
            s.rigid = s.start - (s.row * s.step) * s.normal
            s.h = s.x - s.rigid - cf
            solved = _norms(s.h) < 1e-13
        if np.count_nonzero(s.dist) < s.index.size:
            for i in np.flatnonzero(s.dist == 0.0):
                end(s.index[i], ZeroDivisionError("float division by zero"))
            ended = True
        if ended:
            s = _keep(s, live[s.index])
            if not s.index.size:
                break

        b = s.l / s.dist
        jd = s.k * ((1.0 - b) * eye + b * (s.unit * s.unit.transpose(0, 2, 1)))
        jacobian = eye + s.comp @ jd
        ended = False
        try:
            delta = np.linalg.solve(jacobian, s.h)
        except np.linalg.LinAlgError:
            delta = np.zeros_like(s.h)
            for i in range(s.index.size):
                try:
                    delta[i] = np.linalg.solve(jacobian[i], s.h[i])
                except np.linalg.LinAlgError as exc:
                    end(s.index[i], exc)
                    ended = True
        s.x = s.x - delta
        newton_steps += 1
        if newton_steps - oldest_row >= _MAX_NEWTON_STEPS:
            oldest_row = int(s.row_begun.min())
            for i in np.flatnonzero(newton_steps - s.row_begun >= _MAX_NEWTON_STEPS):
                if live[s.index[i]]:
                    end(s.index[i], SimulationConfigError("compliant-grasp equilibrium solve did not converge"))
                    ended = True
        if ended:
            s = _keep(s, live[s.index])

    index, fruit, force = (np.concatenate(parts) for parts in zip(*log))
    order = np.argsort(index, kind="stable")
    fruit, force = fruit[order].reshape(-1, 3), force[order].reshape(-1, 3)
    first_row = np.searchsorted(index[order], np.arange(len(pulls)))
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, int):
            rows = slice(first_row[i], first_row[i] + outcome)
            outcomes[i] = (fruit[rows], force[rows])
    return outcomes


def _finish(pull: _Pull, fruit_true: np.ndarray, forces_world: np.ndarray) -> SimTrialRecord:
    """The trial of a pull whose rows before the force cap are known: force
    noise, torques and the Trial record."""
    n = len(forces_world)
    if n < 2:
        raise SimulationConfigError(
            "force cap reached before the second sample; raise sample_rate or "
            "slow the pull"
        )
    config = pull.config
    rot = pull.rot
    sensor_start = pull.fruit_start - rot @ config.grasp_point.as_array()
    sensor_positions = sensor_start - (np.arange(n) * pull.step_travel)[:, None] * pull.normal
    forces_sensor = rotate_rows(rot.T, forces_world)
    forces_sensor = forces_sensor + pull.rng.normal(0.0, config.noise_sigma, size=(n, 3))
    grasp_true_sensor = rotate_rows(rot.T, fruit_true - sensor_positions)
    torques_sensor = np.cross(grasp_true_sensor, forces_sensor)

    q = pull.orientation
    samples = SampleColumns(
        t=np.arange(n) * (1.0 / config.sample_rate),
        translation=sensor_positions,
        rotation_wxyz=np.tile([q.w, q.x, q.y, q.z], (n, 1)),
        force=forces_sensor,
        torque=torques_sensor,
    )
    compliant = pull.comp_world is not None
    trial = Trial(
        samples=samples,
        spring=SpringParams(config.k, config.l),
        grasp_point=config.grasp_point,
        label=Label.FAILURE if compliant else Label.SUCCESS,
        ground_truth=Vec3.from_array(pull.r_o),
        id=pull.trial_id,
    )
    return SimTrialRecord(trial=trial, compliance_applied=compliant)


def _generate(pulls) -> list[SimTrialRecord]:
    """The records of the pulls that the iterable ``pulls`` draws, in order.

    A rigid pull is finished when it is drawn; the compliant ones are
    solved together once drawing ends. Drawing stops at the first failure,
    and the failure of the lowest-numbered trial is the one raised.
    """
    records, compliant, error = [], [], None
    try:
        for pull in pulls:
            if pull.comp_world is None:
                with _config_errors(pull.trial_id):
                    records.append(_finish(pull, *_rigid_pull(pull)))
            else:
                compliant.append((len(records), pull))
                records.append(None)
    except SimulationConfigError as exc:
        error = exc
    outcomes = _compliant_pulls([pull for _, pull in compliant])
    for (slot, pull), outcome in zip(compliant, outcomes):
        with _config_errors(pull.trial_id):
            if isinstance(outcome, Exception):
                raise outcome
            records[slot] = _finish(pull, *outcome)
    if error is not None:
        raise error
    return records


def generate_trial(
    config: SimConfig, rng: np.random.Generator, trial_id: str = "trial-0"
) -> SimTrialRecord:
    """Generate one pull trial.

    The attachment point is drawn from the configured box, the hand
    orientation from the quarter sphere. The fruit starts at rest-length
    distance from the attachment; the hand then retreats along the palm
    normal, and sampling stops just before the noiseless force magnitude
    reaches ``force_cap``. Only the recorded part of the pull is evaluated,
    not the whole ``pull_distance``: a rigid pull through the sample that
    reaches the cap (rounded up to a doubling prefix of the window), a
    compliant one row by row. ``generate_corpus`` solves its compliant
    pulls together by the same code; this is the case of one pull.

    A config that cannot give a valid trial, including an extreme but finite
    one whose pull overflows, divides by zero or meets a singular matrix, is
    a SimulationConfigError; numpy warns about none of it.
    """
    return _generate([_draw_pull(config, rng, trial_id)])[0]


def _failure_config(config: SimConfig, rng: np.random.Generator, trial_id: str) -> SimConfig:
    """``config`` with a randomly drawn anisotropic grasp compliance whose
    eigenvalues lie in ``failure_compliance_range``."""
    lo, hi = config.failure_compliance_range
    eigenvalues = rng.uniform(lo, hi, size=3)
    q = rng.normal(size=4)
    basis = UnitQuaternion(q[0], q[1], q[2], q[3]).rotation_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        comp = basis @ np.diag(eigenvalues) @ basis.T
    try:
        return replace(config, grasp_compliance=tuple(tuple(float(v) for v in row) for row in comp))
    except ValueError as exc:  # large equal eigenvalues fail the symmetry check
        raise SimulationConfigError(f"{trial_id}: drawn failure-class compliance: {exc}") from exc


def generate_corpus(
    config: SimConfig, n_trials: int, failure_fraction: float
) -> list[SimTrialRecord]:
    """Generate a labeled corpus: rigid-grasp Success trials first, then
    Failure trials with randomly drawn anisotropic grasp compliance.

    Each trial derives its own generator from the config's seed and its
    index, so the corpus is reproducible and every trial has the bits that
    ``generate_trial`` gives it alone. The compliant pulls of the corpus are
    solved in lockstep; an invalid config raises the error of its
    lowest-numbered failing trial.
    """
    if not 0.0 <= failure_fraction <= 1.0:
        raise ValueError("failure_fraction must lie in [0, 1]")
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    n_fail = round(n_trials * failure_fraction)
    n_success = n_trials - n_fail
    root = np.random.SeedSequence(config.seed)
    width = max(3, len(str(max(n_trials - 1, 1))))

    def pulls():
        for i, child in enumerate(root.spawn(n_trials)):
            rng = np.random.default_rng(child)
            trial_id = f"trial_{i:0{width}d}"
            cfg = config if i < n_success else _failure_config(config, rng, trial_id)
            yield _draw_pull(cfg, rng, trial_id)

    return _generate(pulls())
