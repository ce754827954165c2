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
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import SimulationConfigError
from .geometry import UnitQuaternion, Vec3, cross3, finite_number, finite_numbers, rotate_rows
from .spring_model import Label, SampleColumns, SpringParams, Trial

_ZERO_COMPLIANCE = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
# generate_trial evaluates the pull window only up to the block that holds the
# force cap, but a config whose cap is never reached costs one pass over the
# whole window (a Newton solve per row for a compliant grasp) before that is
# known, so a config whose window exceeds this many samples is rejected
MAX_WINDOW_SAMPLES = 1_000_000
# rows of the first block of the pull window that generate_trial evaluates;
# each further block doubles the rows evaluated, up to the whole window. 128
# rows hold a default pull in one block: 12 samples rigid, 39-60 compliant
FIRST_PREFIX_ROWS = 128
# Newton steps a compliant row may take before it is left unsolved (NaN);
# failure-class rows of the default config take at most 5
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
        rows = finite_numbers("grasp_compliance", self.grasp_compliance, (3, 3))
        rows = tuple(tuple(map(float, row)) for row in rows)
        comp = np.array(rows)
        # a difference that overflows is not close, and must not warn
        with np.errstate(over="ignore"):
            symmetric = np.allclose(comp, comp.T, atol=1e-12)
        if not symmetric:
            raise ValueError("grasp_compliance must be symmetric")
        if np.linalg.eigvalsh(comp).min() < -1e-12:
            raise ValueError("grasp_compliance must be positive semidefinite")
        object.__setattr__(self, "grasp_compliance", rows)
        if not isinstance(self.grasp_point, Vec3):
            raise ValueError("grasp_point must be a Vec3")
        region = self.attachment_region
        if not (
            isinstance(region, (tuple, list))
            and len(region) == 2
            and all(isinstance(end, Vec3) for end in region)
        ):
            raise ValueError("attachment_region must be a pair (min, max) of Vec3")
        lo, hi = region
        if not all(getattr(lo, a) < getattr(hi, a) for a in ("x", "y", "z")):
            raise ValueError("attachment_region must be a box with min < max per axis")
        # kept as tuples of the values given, so a config equals its JSON
        # round trip and hashes
        object.__setattr__(self, "attachment_region", tuple(region))
        clo, chi = finite_numbers("failure_compliance_range", self.failure_compliance_range, (2,))
        object.__setattr__(self, "failure_compliance_range", (clo, chi))
        if not (0.0 < clo <= chi):
            raise ValueError("failure_compliance_range must satisfy 0 < lo <= hi")
        if not (0.0 <= finite_number("off_axis_angle_deg", self.off_axis_angle_deg) < 90.0):
            raise ValueError("off_axis_angle_deg must lie in [0, 90)")

    @property
    def compliance_matrix(self) -> np.ndarray:
        return np.asarray(self.grasp_compliance, dtype=float)

    def to_dict(self) -> dict:
        return {
            f.name: _NESTED_FIELDS[f.name][0](getattr(self, f.name))
            if f.name in _NESTED_FIELDS
            else getattr(self, f.name)
            for f in fields(self)
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Build from a parsed JSON object; any malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("simulator config must be a JSON object")
        unknown = set(data) - {field.name for field in fields(cls)}
        if unknown:
            raise ValueError(f"unknown simulator config fields: {sorted(unknown)}")
        kwargs = dict(data)
        for name, (_, decode) in _NESTED_FIELDS.items():
            if decode is not None and name in kwargs:
                try:
                    kwargs[name] = decode(kwargs[name])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{name}: malformed value ({exc!r})") from exc
        return cls(**kwargs)


def _box(box: dict) -> tuple:
    """attachment_region's JSON form ``{"min": [x, y, z], "max": [x, y, z]}``
    as a pair of Vec3."""
    if not isinstance(box, dict):
        raise ValueError("attachment_region must be an object with 'min' and 'max'")
    unknown = set(box) - {"min", "max"}
    if unknown:
        raise ValueError(f"unknown attachment_region keys: {sorted(unknown)}")
    ends = (box["min"], box["max"])
    return tuple(Vec3(*finite_numbers("attachment_region", end, (3,))) for end in ends)


# the fields that are not plain numbers: (field value -> JSON form, JSON form
# -> field value, or None where the constructor takes the JSON form itself)
_NESTED_FIELDS = {
    "grasp_compliance": (lambda rows: [list(row) for row in rows], None),
    "attachment_region": (
        lambda box: {"min": box[0].as_array().tolist(), "max": box[1].as_array().tolist()},
        _box,
    ),
    "failure_compliance_range": (list, None),
    "grasp_point": (
        lambda point: point.as_array().tolist(),
        lambda point: Vec3(*finite_numbers("grasp_point", point, (3,))),
    ),
}


@dataclass(frozen=True)
class SimTrialRecord:
    """A generated trial; its label says whether the grasp was compliant."""

    trial: Trial


def sample_orientation(rng: np.random.Generator) -> UnitQuaternion:
    """Draw a hand orientation whose palm normal is area-uniform on the
    quarter sphere: elevation ``e`` in [0, 90] degrees above horizontal
    (never with gravity), azimuth ``a`` spanning the half-plane around +x,
    plus a uniform roll ``r`` about the normal. The orientation is the
    quaternion of ``Rz(a) Ry(pi/2 - e) Rz(pi/2 + r)`` in closed form; its
    rotation's third column is the palm normal."""
    u = rng.uniform(size=3)
    elevation = math.asin(u[0])
    azimuth = -0.5 * math.pi + math.pi * u[1]
    roll = 2.0 * math.pi * u[2]
    tilt = 0.25 * math.pi - 0.5 * elevation
    plus = 0.5 * (azimuth + 0.5 * math.pi + roll)
    minus = 0.5 * (azimuth - 0.5 * math.pi - roll)
    return UnitQuaternion(
        math.cos(tilt) * math.cos(plus),
        -math.sin(tilt) * math.sin(minus),
        math.sin(tilt) * math.cos(minus),
        math.cos(tilt) * math.sin(plus),
    )


def _perpendicular_basis(unit: np.ndarray):
    # unit is a sample_orientation normal: |z x unit| = cos(asin(u)) >= 2**-26 as u <= 1 - 2**-53
    a = cross3(np.array([0.0, 0.0, 1.0]), unit)
    a = a / np.linalg.norm(a)
    return a, cross3(unit, a)


def _rotate_about(vec: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return vec * c + cross3(axis, vec) * s + axis * np.dot(axis, vec) * (1.0 - c)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products (n,) of the rows of ``a`` and ``b`` (n, 3), each with the
    bits of np.dot of its rows alone; a sum along axis 1 (as in
    np.linalg.norm(v, axis=1)) can differ in the last bit."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dots(v, v))


def _spring_forces(r_o: np.ndarray, fruit: np.ndarray, k: float, l: float) -> np.ndarray:
    d = r_o - fruit
    dist = _row_norms(d)
    return (k * (dist - l))[:, None] * d / dist[:, None]


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


def _equilibrium(config: SimConfig, r_o: np.ndarray, comp_world, eigen, rigid: np.ndarray):
    """Fruit positions (n, 3) of a compliant grasp whose rigid positions are
    ``rigid``: each row solves x = rigid + C f(x) by Newton from its own rigid
    position (plain fixed-point iteration diverges once k C exceeds one). A
    row is solved, and not stepped again, when its residual, computed with
    C = ``comp_world``, is finite and below 1e-13 m; one still unsolved after
    ``_MAX_NEWTON_STEPS`` steps is NaN.

    The Newton matrix I + C k((1 - b) I + b u u^T), with b = l / |r_o - x|
    and u the unit vector from x to ``r_o``, is A + k b (C u) u^T with
    A = I + k (1 - b) C. In C's eigenbasis ``eigen`` (lam, Q) applying A^-1
    divides by 1 + k (1 - b) lam_i, and Sherman-Morrison adds the rank-one
    term with divisor 1 + k b u^T A^-1 C u. The step relies on a stretched
    spring (|r_o - x| >= l, so b <= 1) and a PSD C: then every divisor is
    >= 1. A step that is not finite leaves its row NaN. Only the step uses
    the eigenpairs, so their rounding can cost a step but never give a wrong
    row. Every operation is per row, so a row has the bits of its own scalar
    solve, whatever rows are solved with it.
    """
    lam, basis = eigen
    fruit = np.full_like(rigid, np.nan)
    rows = np.arange(len(rigid))
    x = rigid
    for _ in range(_MAX_NEWTON_STEPS):
        h = x - rigid - rotate_rows(comp_world, _spring_forces(r_o, x, config.k, config.l))
        solved = _row_norms(h) < 1e-13  # False for NaN
        if np.count_nonzero(solved):
            fruit[rows[solved]] = x[solved]
            keep = ~solved
            rows, rigid, x, h = rows[keep], rigid[keep], x[keep], h[keep]
            if not rows.size:
                break
        d = r_o - x
        dist = _row_norms(d)[:, None]
        b = config.l / dist
        u = rotate_rows(basis.T, d / dist)  # in C's eigenbasis, as are the steps
        divisors = 1.0 + config.k * (1.0 - b) * lam
        a_h = rotate_rows(basis.T, h) / divisors
        a_cu = (config.k * b) * lam * u / divisors
        step = a_h - a_cu * (_row_dots(u, a_h) / (1.0 + _row_dots(u, a_cu)))[:, None]
        x = x - rotate_rows(basis, step)
    return fruit


def _pull_rows(config: SimConfig, trial_id: str, r_o, fruit_start, normal, comp_world, step_travel):
    """True fruit positions and world-frame spring forces of a pull from rest
    through the sample before the first whose noiseless force reaches
    ``force_cap``.

    The pull window is evaluated in blocks: its first ``FIRST_PREFIX_ROWS``
    rows, then blocks that each double the rows evaluated, until a block
    holds the cap. A rigid grasp's fruit rows are its rigid positions; a
    compliant grasp's are solved by ``_equilibrium`` in the eigenbasis of
    ``comp_world``, and a row left unsolved before the cap fails the trial.
    Every row has the bits of the same row of the whole window.
    """
    window = int(math.floor(config.pull_distance / step_travel)) + 1
    eigen = None if comp_world is None else np.linalg.eigh(comp_world)
    fruit, forces = [], []
    done = 0
    while done < window:
        size = min(window, max(2 * done, FIRST_PREFIX_ROWS))
        rigid = fruit_start - (np.arange(done, size) * step_travel)[:, None] * normal
        block = rigid if comp_world is None else _equilibrium(config, r_o, comp_world, eigen, rigid)
        block_forces = _spring_forces(r_o, block, config.k, config.l)
        if not done:
            block_forces[0] = 0.0  # the fruit starts at rest
        fruit.append(block)
        forces.append(block_forces)
        unsolved = np.isnan(block[:, 0])
        ends = np.flatnonzero((_row_norms(block_forces) >= config.force_cap) | unsolved)
        if ends.size:
            end = int(ends[0])
            if unsolved[end]:
                raise SimulationConfigError(
                    f"{trial_id}: compliant-grasp equilibrium solve did not converge"
                )
            n = done + end
            return np.concatenate(fruit)[:n], np.concatenate(forces)[:n]
        done = size
    raise SimulationConfigError(
        f"{trial_id}: force cap {config.force_cap} N not reached within pull_distance "
        f"{config.pull_distance} m; lengthen the pull or soften the cap"
    )


def generate_trial(
    config: SimConfig, rng: np.random.Generator, trial_id: str = "trial-0"
) -> SimTrialRecord:
    """Generate one pull trial.

    The attachment point is drawn from the configured box, the hand
    orientation from the quarter sphere. The fruit starts at rest-length
    distance from the attachment; the hand then retreats along the palm
    normal, and sampling stops just before the noiseless force magnitude
    reaches ``force_cap``. Only the recorded part of the pull is evaluated,
    not the whole ``pull_distance``: the window's rows in doubling blocks,
    through the block that holds the cap. With a compliant grasp each row's
    fruit position is a Newton solve from that row's rigid position, so
    every row depends on its own hand position alone.

    A config that cannot give a valid trial, including an extreme but finite
    one whose pull overflows or divides by zero, is a SimulationConfigError
    naming ``trial_id``; numpy warns about none of it.
    """
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
        fruit_start = r_o - config.l * spring_axis

        comp_sensor = config.compliance_matrix
        compliant = bool(np.any(comp_sensor != 0.0))
        comp_world = rot @ comp_sensor @ rot.T if compliant else None
        step_travel = config.pull_speed * (1.0 / config.sample_rate)
        fruit_true, forces_world = _pull_rows(
            config, trial_id, r_o, fruit_start, normal, comp_world, step_travel
        )

        n = len(forces_world)
        if n < 2:
            raise SimulationConfigError(
                f"{trial_id}: force cap reached before the second sample; raise "
                "sample_rate or slow the pull"
            )
        sensor_start = fruit_start - rot @ config.grasp_point.as_array()
        sensor_positions = sensor_start - (np.arange(n) * step_travel)[:, None] * normal
        forces_sensor = rotate_rows(rot.T, forces_world)
        forces_sensor = forces_sensor + rng.normal(0.0, config.noise_sigma, size=(n, 3))
        grasp_true_sensor = rotate_rows(rot.T, fruit_true - sensor_positions)
        torques_sensor = np.cross(grasp_true_sensor, forces_sensor)

        q = orientation
        samples = SampleColumns(
            t=np.arange(n) * (1.0 / config.sample_rate),
            translation=sensor_positions,
            rotation_wxyz=np.tile([q.w, q.x, q.y, q.z], (n, 1)),
            force=forces_sensor,
            torque=torques_sensor,
        )
        trial = Trial(
            samples=samples,
            spring=SpringParams(config.k, config.l),
            grasp_point=config.grasp_point,
            label=Label.FAILURE if compliant else Label.SUCCESS,
            ground_truth=Vec3.from_array(r_o),
            id=trial_id,
        )
        return SimTrialRecord(trial=trial)


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
        return replace(config, grasp_compliance=comp)
    except ValueError as exc:  # large equal eigenvalues fail the symmetry check
        raise SimulationConfigError(f"{trial_id}: drawn failure-class compliance: {exc}") from exc


def generate_corpus(
    config: SimConfig, n_trials: int, failure_fraction: float
) -> list[SimTrialRecord]:
    """Generate a labeled corpus: rigid-grasp Success trials first, then
    Failure trials with randomly drawn anisotropic grasp compliance.

    Each trial is one ``generate_trial`` call on a generator derived from
    the config's seed and the trial's index, so the corpus is reproducible
    and every trial has the bits it has alone. The first trial that fails
    ends the corpus with its error.
    """
    if not 0.0 <= failure_fraction <= 1.0:
        raise ValueError("failure_fraction must lie in [0, 1]")
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    n_fail = round(n_trials * failure_fraction)
    n_success = n_trials - n_fail
    root = np.random.SeedSequence(config.seed)
    width = max(3, len(str(max(n_trials - 1, 1))))
    records = []
    for i, child in enumerate(root.spawn(n_trials)):
        rng = np.random.default_rng(child)
        trial_id = f"trial_{i:0{width}d}"
        cfg = config if i < n_success else _failure_config(config, rng, trial_id)
        records.append(generate_trial(cfg, rng, trial_id))
    return records
