"""Shared builders for synthetic trials and random geometry, plus the
references that tests hold the package to: the spring force law, the
per-sample pose and wrench mappings behind its stacked (columnar)
computations, the row-wise (n, 3) model formulas behind its columnar model
kernels, the v1 and v2 trial documents behind its trial-file reader and
writer, and the whole-window, row-by-row pull and the trial-by-trial corpus
behind the simulator's prefix evaluation and row-parallel equilibrium
solve."""

import base64
import math
import struct

import numpy as np
import pytest

from stemfit import spring_model
from stemfit.errors import SimulationConfigError, SingularityError
from stemfit.geometry import UnitQuaternion, Vec3, rotate_rows
from stemfit.simulator import (
    SimTrialRecord,
    _perpendicular_basis,
    _rotate_about,
    _failure_config,
    _row_norms,
    _spring_forces,
    sample_orientation,
)
from stemfit.spring_model import (
    SINGULARITY_DISTANCE,
    Label,
    SampleColumns,
    SpringParams,
    Trial,
)
from stemfit.trial_io import dump_json


def random_unit_quaternion(rng) -> UnitQuaternion:
    q = rng.normal(size=4)
    return UnitQuaternion(q[0], q[1], q[2], q[3])


def wxyz(q: UnitQuaternion) -> list:
    return [q.w, q.x, q.y, q.z]


def rotation_matrix_reference(q) -> np.ndarray:
    """Rotation matrix of one unit quaternion ``(w, x, y, z)``, written out in
    scalars and used as given (no renormalization)."""
    w, x, y, z = (float(v) for v in q)
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def pose_point_reference(q, translation, point) -> np.ndarray:
    """World position of a sensor-frame point at one pose: ``R @ p + t``."""
    return rotation_matrix_reference(q) @ np.asarray(point, dtype=float) + np.asarray(
        translation, dtype=float
    )


def wrench_to_world_reference(q, translation, force, torque):
    """One sensor-frame wrench re-expressed in the world frame: force by
    rotation alone, torque by rotation plus the moment arm of the sensor origin."""
    rot = rotation_matrix_reference(q)
    force_w = rot @ np.asarray(force, dtype=float)
    torque_w = rot @ np.asarray(torque, dtype=float) + np.cross(translation, force_w)
    return force_w, torque_w


def predict_force(r_o: Vec3, r_a_t: Vec3, spring: SpringParams) -> Vec3:
    """Spring force on the fruit for attachment ``r_o`` and fruit at ``r_a_t``.

    Evaluated as written even when ``|d| < l`` (a pushing force): the solver's
    tension constraint excludes that regime at the solution, but keeping the
    function smooth there keeps line searches well behaved.
    """
    d = r_o.as_array() - r_a_t.as_array()
    dist = float(np.linalg.norm(d))
    if dist <= SINGULARITY_DISTANCE:
        raise SingularityError(
            f"attachment point within {SINGULARITY_DISTANCE} m of the fruit position"
        )
    return Vec3.from_array(spring.k * (dist - spring.l) * d / dist)


def _row_displacements(r_o, arrays):
    d = r_o[None, :] - arrays.grasp_world
    dist = np.linalg.norm(d, axis=1)
    if np.any(dist <= SINGULARITY_DISTANCE):
        idx = int(np.argmin(dist))
        raise SingularityError(
            f"candidate attachment point coincides with fruit position at "
            f"sample {idx} (distance {dist[idx]:.3e} m)"
        )
    return d, dist


def cost_and_gradient_reference(r_o, arrays):
    """Mean squared force residual and its gradient, on the (n, 3) rows of
    ``arrays``; the package's columnar kernel must give the same bits."""
    d, dist = _row_displacements(r_o, arrays)
    unit = d / dist[:, None]
    pred = (arrays.k * (dist - arrays.l))[:, None] * unit
    resid = pred - arrays.force_world
    n = dist.size
    cost = float(np.sum(resid * resid) / n)
    a = arrays.k * (1.0 - arrays.l / dist)
    b = arrays.k * arrays.l / dist
    dot = np.sum(unit * resid, axis=1)
    grad = (2.0 / n) * np.sum(a[:, None] * resid + (b * dot)[:, None] * unit, axis=0)
    return cost, grad


def cost_hessian_reference(r_o, arrays):
    """Exact Hessian of the cost (Gauss-Newton part plus residual curvature)
    as a sum of per-sample (3, 3) matrices, on the (n, 3) rows of ``arrays``."""
    d, dist = _row_displacements(r_o, arrays)
    unit = d / dist[:, None]
    pred = (arrays.k * (dist - arrays.l))[:, None] * unit
    resid = pred - arrays.force_world
    n = dist.size
    a = arrays.k * (1.0 - arrays.l / dist)
    b = arrays.k * arrays.l / dist
    eye = np.eye(3)
    uu = np.einsum("ti,tj->tij", unit, unit)
    jtj = (a * a)[:, None, None] * eye[None] + (2.0 * a * b + b * b)[:, None, None] * uu
    dot = np.sum(unit * resid, axis=1)
    perp = resid - dot[:, None] * unit
    pu = np.einsum("ti,tj->tij", perp, unit)
    curv = (b / dist)[:, None, None] * (
        pu + pu.transpose(0, 2, 1) + dot[:, None, None] * (eye[None] - uu)
    )
    return (2.0 / n) * np.sum(jtj + curv, axis=0)


def constraint_values_jacobian_reference(r_o, arrays):
    """Tension constraints ``l - |d_t|`` and their Jacobian rows, on the
    (n, 3) rows of ``arrays``."""
    d, dist = _row_displacements(r_o, arrays)
    return arrays.l - dist, -d / dist[:, None]


def point_hessian(r_o, arrays):
    """The cost Hessian at ``r_o`` as the solver computes it, from the
    point's terms."""
    return spring_model.terms_hessian(spring_model.point_terms(r_o, arrays), arrays)


def _result_or_message(fn, x, arrays):
    try:
        return fn(x, arrays)
    except SingularityError as exc:
        return str(exc)


def assert_kernels_match_reference(x, arrays):
    """The package's model kernels at ``x`` give the bits of the references
    (NaN matching NaN; the Hessian bit for bit, sign of zero and NaN
    included), or the same SingularityError message."""
    cost = _result_or_message(spring_model.cost_and_gradient, x, arrays)
    cost_ref = _result_or_message(cost_and_gradient_reference, x, arrays)
    constraints = _result_or_message(spring_model.constraint_values_jacobian, x, arrays)
    constraints_ref = _result_or_message(constraint_values_jacobian_reference, x, arrays)
    hessian = _result_or_message(point_hessian, x, arrays)
    hessian_ref = _result_or_message(cost_hessian_reference, x, arrays)
    assert type(cost) is type(cost_ref)
    if isinstance(cost, str):
        assert cost == cost_ref and constraints == constraints_ref and hessian == hessian_ref
    else:
        assert cost[0] == cost_ref[0] or (np.isnan(cost[0]) and np.isnan(cost_ref[0]))
        assert np.array_equal(cost[1], cost_ref[1], equal_nan=True)
        for got, want in zip(constraints, constraints_ref):
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
        assert hessian.shape == hessian_ref.shape == (3, 3)
        assert np.array_equal(hessian.view(np.uint64), hessian_ref.view(np.uint64))


def solve_equilibrium_reference(r_o, rigid_pos, comp_world, k, l, x_init=None):
    """Fruit position where the spring force and the compliant grasp agree,
    for one row of a pull, or a NaN row if the solve does not converge.

    Solves x = rigid_pos + C_w f(x) by Newton from ``x_init`` (by default the
    row's rigid position, as the simulator does for every row) to a position
    residual below 1e-13 m, testing the residual at most 80 times.
    """
    eye = np.eye(3)
    x = rigid_pos.copy() if x_init is None else x_init.copy()
    for _ in range(80):
        d = r_o - x
        dist = np.linalg.norm(d)  # a numpy float: dividing by zero gives inf, as in the package
        f = k * (dist - l) * d / dist
        h = x - rigid_pos - comp_world @ f
        if float(np.linalg.norm(h)) < 1e-13:
            return x
        unit = d / dist
        jd = k * ((1.0 - l / dist) * eye + (l / dist) * np.outer(unit, unit))
        x = x - np.linalg.solve(eye + comp_world @ jd, h)
    return np.full(3, np.nan)


def draw_pull_reference(config, rng) -> dict:
    """The geometry of one pull, drawn from ``rng`` in the simulator's order:
    attachment point, hand orientation, then the off-axis tilt if any."""
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
    n_max = int(math.floor(config.pull_distance / step_travel))
    fruit_start = r_o - config.l * spring_axis
    return {
        "r_o": r_o,
        "orientation": orientation,
        "rot": rot,
        "normal": normal,
        "fruit_start": fruit_start,
        "comp_world": rot @ comp_sensor @ rot.T if compliant else None,
        "step_travel": step_travel,
        "rigid": fruit_start - (np.arange(n_max + 1) * step_travel)[:, None] * normal,
    }


def pull_rows_reference(config, pull, trial_id, warm_start=False):
    """True fruit positions and world-frame spring forces of a pull through
    the sample before the first whose noiseless force reaches ``force_cap``,
    evaluated on the whole window: a rigid grasp's rows at once, a compliant
    grasp's row by row with ``solve_equilibrium_reference`` until a row
    reaches the cap or is left unsolved. ``warm_start`` starts each row's
    solve from the previous row's position, as the simulator once did; its
    rows agree with the default ones only to rounding."""
    rigid = pull["rigid"]
    if pull["comp_world"] is None:
        fruit = rigid
    else:
        rows = []
        for i, rigid_pos in enumerate(rigid):
            x_init = rows[-1] if warm_start and rows else None
            x = solve_equilibrium_reference(
                pull["r_o"], rigid_pos, pull["comp_world"], config.k, config.l, x_init
            )
            rows.append(x)
            force = _spring_forces(pull["r_o"], x[None, :], config.k, config.l)[0]
            if i and not float(np.linalg.norm(force)) < config.force_cap:
                break
        fruit = np.array(rows)
    forces = _spring_forces(pull["r_o"], fruit, config.k, config.l)
    forces[0] = 0.0
    unsolved = np.isnan(fruit[:, 0])
    ends = np.flatnonzero((_row_norms(forces) >= config.force_cap) | unsolved)
    if ends.size == 0:
        raise SimulationConfigError(
            f"{trial_id}: force cap {config.force_cap} N not reached within pull_distance "
            f"{config.pull_distance} m; lengthen the pull or soften the cap"
        )
    n = int(ends[0])
    if unsolved[n]:
        raise SimulationConfigError(
            f"{trial_id}: compliant-grasp equilibrium solve did not converge"
        )
    return fruit[:n], forces[:n]


def generate_trial_reference(config, rng, trial_id="trial-0", warm_start=False) -> SimTrialRecord:
    """One pull trial evaluated on the whole ``pull_distance`` window before
    the force cap is looked for: the package's ``generate_trial`` evaluates
    only a prefix of that window and must give the same bits, draw the same
    random numbers and raise the same errors."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            return _whole_window_trial(config, rng, trial_id, warm_start)
        except (ArithmeticError, ValueError) as exc:
            raise SimulationConfigError(f"{trial_id}: {exc}") from exc


def _whole_window_trial(config, rng, trial_id, warm_start):
    pull = draw_pull_reference(config, rng)
    fruit_true, forces_world = pull_rows_reference(config, pull, trial_id, warm_start)
    n = len(forces_world)
    if n < 2:
        raise SimulationConfigError(
            f"{trial_id}: force cap reached before the second sample; raise "
            "sample_rate or slow the pull"
        )

    rot, normal, orientation = pull["rot"], pull["normal"], pull["orientation"]
    sensor_start = pull["fruit_start"] - rot @ config.grasp_point.as_array()
    sensor_positions = sensor_start - (np.arange(n) * pull["step_travel"])[:, None] * normal
    forces_sensor = rotate_rows(rot.T, forces_world)
    forces_sensor = forces_sensor + rng.normal(0.0, config.noise_sigma, size=(n, 3))
    grasp_true_sensor = rotate_rows(rot.T, fruit_true - sensor_positions)
    torques_sensor = np.cross(grasp_true_sensor, forces_sensor)

    samples = SampleColumns(
        t=np.arange(n) * (1.0 / config.sample_rate),
        translation=sensor_positions,
        rotation_wxyz=np.tile([orientation.w, orientation.x, orientation.y, orientation.z], (n, 1)),
        force=forces_sensor,
        torque=torques_sensor,
    )
    compliant = pull["comp_world"] is not None
    trial = Trial(
        samples=samples,
        spring=SpringParams(config.k, config.l),
        grasp_point=config.grasp_point,
        label=Label.FAILURE if compliant else Label.SUCCESS,
        ground_truth=Vec3.from_array(pull["r_o"]),
        id=trial_id,
    )
    return SimTrialRecord(trial=trial, compliance_applied=compliant)


def corpus_trials(config, n_trials, failure_fraction):
    """The (config, generator, id) of each corpus trial, in order, as
    ``generate_corpus`` derives them: a child stream of the config's seed per
    trial, and a drawn compliance for each failure-class trial (a draw that
    fails raises when its trial is reached)."""
    n_success = n_trials - round(n_trials * failure_fraction)
    width = max(3, len(str(max(n_trials - 1, 1))))
    for i, child in enumerate(np.random.SeedSequence(config.seed).spawn(n_trials)):
        rng = np.random.default_rng(child)
        trial_id = f"trial_{i:0{width}d}"
        cfg = config if i < n_success else _failure_config(config, rng, trial_id)
        yield cfg, rng, trial_id


def generate_corpus_reference(config, n_trials, failure_fraction) -> list:
    """The corpus generated trial by trial, each by
    ``generate_trial_reference``; the first trial that fails raises. The
    package's ``generate_corpus`` must give the same bits and raise the same
    error."""
    return [
        generate_trial_reference(cfg, rng, trial_id)
        for cfg, rng, trial_id in corpus_trials(config, n_trials, failure_fraction)
    ]


def _head(trial: Trial, version: int) -> dict:
    doc = {
        "schema_version": version,
        "id": trial.id,
        "label": trial.label.value,
        "spring": {"k": trial.spring.k, "l": trial.spring.l},
        "grasp_point": [trial.grasp_point.x, trial.grasp_point.y, trial.grasp_point.z],
    }
    if trial.ground_truth is not None:
        gt = trial.ground_truth
        doc["ground_truth"] = [gt.x, gt.y, gt.z]
    return doc


def trial_to_dict(trial: Trial) -> dict:
    """The v1 trial document, built sample by sample as plain JSON values."""
    s = trial.samples
    rows = zip(
        s.t.tolist(),
        s.translation.tolist(),
        s.rotation_wxyz.tolist(),
        s.force.tolist(),
        s.torque.tolist(),
    )
    doc = _head(trial, 1)
    doc["samples"] = [
        {
            "t": t,
            "pose": {"translation": translation, "rotation_wxyz": rotation},
            "wrench": {"force": force, "torque": torque},
        }
        for t, translation, rotation, force, torque in rows
    ]
    return doc


def v1_text(trial: Trial) -> str:
    """A v1 trial file, as stemfit wrote them before schema version 2."""
    return dump_json(trial_to_dict(trial))


def encode_column(values) -> str:
    """Base64 of ``values`` (a number or nested lists of numbers, row-major)
    packed one by one as little-endian doubles."""
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return base64.b64encode(b"".join(struct.pack("<d", v) for v in flat)).decode("ascii")


def trial_to_v2_dict(trial: Trial) -> dict:
    """The v2 trial document: the v1 head plus each sample column encoded
    value by value; a trial file holds exactly its ``dump_json`` text."""
    s = trial.samples
    doc = _head(trial, 2)
    doc["columns"] = {
        name: encode_column(getattr(s, name).tolist())
        for name in ("t", "translation", "rotation_wxyz", "force", "torque")
    }
    return doc


def columns(t, translation=None, rotation_wxyz=None, force=None, torque=None) -> SampleColumns:
    """Sample columns for timestamps ``t``; the pose defaults to the identity
    and the wrench to zero."""
    n = len(t)
    zeros = np.zeros((n, 3))
    if rotation_wxyz is None:
        rotation_wxyz = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return SampleColumns(
        t=t,
        translation=zeros if translation is None else translation,
        rotation_wxyz=rotation_wxyz,
        force=zeros if force is None else force,
        torque=zeros if torque is None else torque,
    )


def static_trial(forces, spring=SpringParams(632.0, 0.1), grasp=Vec3(0.0, 0.0, 0.0)):
    """Trial with identity poses and the given sensor-frame forces."""
    forces = np.asarray(forces, dtype=float)
    samples = columns(0.002 * np.arange(len(forces)), force=forces)
    return Trial(samples=samples, spring=spring, grasp_point=grasp, id="static")


def pull_trial(
    r_o,
    spring=SpringParams(632.0, 0.1),
    n=20,
    direction=(0.0, 0.0, -1.0),
    speed=0.05,
    rng=None,
    noise=0.0,
):
    """Hand-built straight pull consistent with the model: the fruit starts at
    rest-length distance from ``r_o`` and retreats along ``direction``."""
    r_o = np.asarray(r_o, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    start = r_o + spring.l * direction
    times, positions, forces = [], [], []
    for i in range(n):
        t = 0.002 * i
        pos = start + speed * t * direction
        d = r_o - pos
        dist = float(np.linalg.norm(d))
        force = spring.k * (dist - spring.l) * d / dist
        if noise > 0.0 and rng is not None:
            force = force + rng.normal(0.0, noise, size=3)
        times.append(t)
        positions.append(pos)
        forces.append(force)
    return Trial(
        samples=columns(times, translation=positions, force=forces),
        spring=spring,
        grasp_point=Vec3(0.0, 0.0, 0.0),
        ground_truth=Vec3.from_array(r_o),
        id="pull",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
