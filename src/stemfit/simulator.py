"""Synthetic pull-trial generation against the spring-tether model.

Stands in for a physical data-collection rig: each trial draws an attachment
point and a hand orientation, pulls the hand back along the palm normal at
constant speed, and records the sensor-frame wrench the model produces,
optionally with per-axis Gaussian force noise and a compliant-grasp
perturbation that lets the fruit drift inside the hand under load.

The palm normal is the sensor frame's +z axis expressed in the world frame.
"""

import math
from dataclasses import dataclass, replace

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


def _row_norms(v: np.ndarray) -> np.ndarray:
    # a stacked dot product gives each row the bits of np.linalg.norm(row);
    # np.linalg.norm(v, axis=1) sums differently and can differ in the last bit
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _spring_forces(r_o: np.ndarray, fruit: np.ndarray, k: float, l: float) -> np.ndarray:
    d = r_o - fruit
    dist = _row_norms(d)
    return (k * (dist - l))[:, None] * d / dist[:, None]


def _solve_equilibrium(r_o, rigid_pos, comp_world, k, l, x_init):
    """Fruit position where the spring force and the compliant grasp agree.

    Solves x = rigid_pos + C_w f(x) by Newton; plain fixed-point iteration
    diverges whenever k times the compliance exceeds one. Converges to a
    position residual below 1e-13 m, i.e. force consistency well under 1e-9 N.
    """
    eye = np.eye(3)
    x = x_init.copy()
    for _ in range(80):
        d = r_o - x
        dist = float(np.linalg.norm(d))
        unit = d / dist
        f = k * (dist - l) * unit
        h = x - rigid_pos - comp_world @ f
        if float(np.linalg.norm(h)) < 1e-13:
            return x, f
        jd = k * ((1.0 - l / dist) * eye + (l / dist) * np.outer(unit, unit))
        x = x - np.linalg.solve(eye + comp_world @ jd, h)
    raise SimulationConfigError("compliant-grasp equilibrium solve did not converge")


def _pull_to_cap(config, r_o, fruit_start, normal, comp_world, step_travel):
    """Travel, true fruit positions and world-frame spring forces of the pull
    from rest, through the first sample whose noiseless force reaches
    ``force_cap``, and that sample's index.

    The rows are evaluated on a prefix of the pull window that starts at
    ``FIRST_PREFIX_ROWS`` rows and doubles until it holds the cap. Every row
    comes from per-row arithmetic, so a prefix's rows have the bits of the
    same rows of the whole window.
    """
    window = int(math.floor(config.pull_distance / step_travel)) + 1
    size = 0
    fruit_rows, force_rows = [], []
    x = fruit_start
    while size < window:
        size = min(window, max(2 * size, FIRST_PREFIX_ROWS))
        travel = np.arange(size) * step_travel
        rigid = fruit_start - travel[:, None] * normal
        if comp_world is None:
            fruit_true = rigid
            forces_world = _spring_forces(r_o, rigid, config.k, config.l)
            forces_world[0] = 0.0  # the fruit starts at rest
        else:
            # each equilibrium solve warm-starts from the previous sample's
            for rigid_pos in rigid[len(force_rows):]:
                x, f_world = _solve_equilibrium(r_o, rigid_pos, comp_world, config.k, config.l, x)
                fruit_rows.append(x)
                force_rows.append(f_world)
                if float(np.linalg.norm(f_world)) >= config.force_cap:
                    break
            fruit_true, forces_world = np.array(fruit_rows), np.array(force_rows)
        capped = np.flatnonzero(_row_norms(forces_world) >= config.force_cap)
        if capped.size:
            return travel, fruit_true, forces_world, int(capped[0])
    raise SimulationConfigError(
        f"force cap {config.force_cap} N not reached within pull_distance "
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
    through the sample that reaches the cap (rounded up to a doubling
    prefix of the window), not the whole ``pull_distance``.

    A config that cannot give a valid trial, including an extreme but finite
    one whose pull overflows, divides by zero or meets a singular matrix, is
    a SimulationConfigError; numpy warns about none of it.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            return _generate_trial(config, rng, trial_id)
        except (ArithmeticError, ValueError) as exc:  # LinAlgError is a ValueError
            raise SimulationConfigError(f"{trial_id}: {exc}") from exc


def _generate_trial(config: SimConfig, rng: np.random.Generator, trial_id: str) -> SimTrialRecord:
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
    grasp_sensor = config.grasp_point.as_array()
    sensor_start = fruit_start - rot @ grasp_sensor

    comp_sensor = config.compliance_matrix
    compliant = bool(np.any(comp_sensor != 0.0))
    comp_world = rot @ comp_sensor @ rot.T if compliant else None

    dt = 1.0 / config.sample_rate
    travel, fruit_true, forces_world, n = _pull_to_cap(
        config, r_o, fruit_start, normal, comp_world, config.pull_speed * dt
    )
    if n < 2:
        raise SimulationConfigError(
            "force cap reached before the second sample; raise sample_rate or "
            "slow the pull"
        )

    sensor_positions = sensor_start - travel[:n, None] * normal
    forces_sensor = rotate_rows(rot.T, forces_world[:n])
    forces_sensor = forces_sensor + rng.normal(0.0, config.noise_sigma, size=(n, 3))
    grasp_true_sensor = rotate_rows(rot.T, fruit_true[:n] - sensor_positions)
    torques_sensor = np.cross(grasp_true_sensor, forces_sensor)

    samples = SampleColumns(
        t=np.arange(n) * dt,
        translation=sensor_positions,
        rotation_wxyz=np.tile([orientation.w, orientation.x, orientation.y, orientation.z], (n, 1)),
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
    return SimTrialRecord(trial=trial, compliance_applied=compliant)


def generate_corpus(
    config: SimConfig, n_trials: int, failure_fraction: float
) -> list[SimTrialRecord]:
    """Generate a labeled corpus: rigid-grasp Success trials first, then
    Failure trials with randomly drawn anisotropic grasp compliance.

    Each trial derives its own generator from the config's seed and its
    index, so the corpus is reproducible and trials could be generated in any
    order.
    """
    if not 0.0 <= failure_fraction <= 1.0:
        raise ValueError("failure_fraction must lie in [0, 1]")
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    n_fail = round(n_trials * failure_fraction)
    n_success = n_trials - n_fail
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(n_trials)
    width = max(3, len(str(max(n_trials - 1, 1))))
    records = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        trial_id = f"trial_{i:0{width}d}"
        cfg = config
        if i >= n_success:
            lo, hi = config.failure_compliance_range
            eigenvalues = rng.uniform(lo, hi, size=3)
            q = rng.normal(size=4)
            basis = UnitQuaternion(q[0], q[1], q[2], q[3]).rotation_matrix()
            with np.errstate(over="ignore", invalid="ignore"):
                comp = basis @ np.diag(eigenvalues) @ basis.T
            try:
                cfg = replace(
                    config,
                    grasp_compliance=tuple(tuple(float(v) for v in row) for row in comp),
                )
            except ValueError as exc:  # large equal eigenvalues fail the symmetry check
                raise SimulationConfigError(
                    f"{trial_id}: drawn failure-class compliance: {exc}"
                ) from exc
        records.append(generate_trial(cfg, rng, trial_id=trial_id))
    return records
