"""Shared builders for synthetic trials and random geometry, plus the
references that tests hold the package to: the spring force law, the
per-sample pose and wrench mappings behind its stacked (columnar)
computations, the row-wise (n, 3) model formulas behind its columnar model
kernels, the per-row column checks behind ``Trial``'s whole-array passes,
the one-quaternion rotation stacks behind the first pose and
``UnitQuaternion.rotation_matrix``, the v1, v2 and v3 trial files behind its
trial-file reader and writer (and the corpora stemfit wrote before version
3), and the whole-window, row-by-row pull and the trial-by-trial corpus
behind the simulator's prefix evaluation and row-parallel equilibrium solve. The solver tests' fit recorder and their
trial finder close the file."""

import base64
import functools
import json
import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stemfit import solver, spring_model
from stemfit.errors import SimulationConfigError, SingularityError
from stemfit.geometry import UnitQuaternion, Vec3, rotate_rows, rotation_matrices
from stemfit.simulator import (
    SimConfig,
    SimTrialRecord,
    _perpendicular_basis,
    _rotate_about,
    _failure_config,
    _row_norms,
    _spring_forces,
    generate_corpus,
    generate_trial,
    sample_orientation,
)
from stemfit.solver import SolverConfig
from stemfit.spring_model import (
    COLUMN_WIDTHS,
    SINGULARITY_DISTANCE,
    UNIT_QUATERNION_TOL,
    Label,
    SampleColumns,
    SpringParams,
    Trial,
    TrialArrays,
    bias_compensate,
)
from stemfit.trial_io import MANIFEST_NAME, config_digest, dump_json, load_manifest


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


def rotation_matrix_stack_reference(q) -> np.ndarray:
    """Rotation matrix of one quaternion ``(w, x, y, z)`` as the (1, 3, 3)
    stack of ``rotation_matrices``."""
    return rotation_matrices(np.array([[float(v) for v in q]]))[0]


def apple_position_reference(trial: Trial) -> np.ndarray:
    """The first fruit position through a (1, 3, 3) ``rotation_matrices``
    stack, its matrix-vector product and the first translation."""
    s = trial.samples
    first = rotation_matrices(s.rotation_wxyz[:1]) @ trial.grasp_point.as_array()
    return first[0] + s.translation[0]


def quaternion_norms_reference(q) -> np.ndarray:
    """Quaternion row norms as a sum along each (4,) row."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.sum(q * q, axis=1))


def first_non_finite_reference(columns: dict):
    """``(column name, row)`` of the first row of the sample ``columns``
    (name → array) holding a NaN or an infinity, in column order, each row
    reduced over its width; None if all finite."""
    n = len(columns["t"])
    for name in COLUMN_WIDTHS:
        finite = np.isfinite(columns[name]).reshape(n, -1).all(axis=1)
        if not finite.all():
            return name, int(np.argmin(finite))
    return None


def trial_check_reference(columns: dict) -> str | None:
    """The message of the first check that ``SampleColumns`` and then
    ``Trial`` fail on the sample ``columns`` (name → array), or None:
    finiteness, at least 2 samples, increasing ``t`` and unit quaternions,
    each computed row by row."""
    bad = first_non_finite_reference(columns)
    if bad is not None:
        return f"samples[{bad[1]}]: {bad[0]} must be finite"
    n = len(columns["t"])
    if n < 2:
        return f"trial needs at least 2 samples, got {n}"
    t = columns["t"]
    steps = np.flatnonzero(~(t[1:] > t[:-1]))
    if steps.size:
        i = int(steps[0]) + 1
        return f"samples[{i}]: timestamp {t[i]} not strictly greater than previous {t[i - 1]}"
    q = columns["rotation_wxyz"]
    off_unit = ~(np.abs(quaternion_norms_reference(q) - 1.0) <= UNIT_QUATERNION_TOL)
    if off_unit.any():
        i = int(np.argmax(off_unit))
        return f"samples[{i}]: rotation_wxyz {q[i].tolist()} is not a unit quaternion"
    return None


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
    residual below 1e-13 m, testing the residual at most 80 times. Each step
    solves the Newton matrix A + k b (C_w u) u^T, A = I + k (1 - b) C_w, in
    closed form: A^-1 in C_w's eigenbasis, then Sherman-Morrison.
    """
    lam, basis = np.linalg.eigh(comp_world)
    x = rigid_pos.copy() if x_init is None else x_init.copy()
    for _ in range(80):
        d = r_o - x
        dist = np.linalg.norm(d)  # a numpy float: dividing by zero gives inf, as in the package
        f = k * (dist - l) * d / dist
        h = x - rigid_pos - comp_world @ f
        if float(np.linalg.norm(h)) < 1e-13:
            return x
        b = l / dist
        u = basis.T @ (d / dist)
        divisors = 1.0 + k * (1.0 - b) * lam
        a_h = (basis.T @ h) / divisors  # A^-1 h
        a_cu = (k * b) * lam * u / divisors  # A^-1 k b C_w u
        x = x - basis @ (a_h - a_cu * (np.dot(u, a_h) / (1.0 + np.dot(u, a_cu))))
    return np.full(3, np.nan)


def solve_equilibrium_by_lapack(r_o, rigid_pos, comp_world, k, l, x_init=None):
    """``solve_equilibrium_reference`` with each Newton step solved by
    np.linalg.solve on the (3, 3) Newton matrix instead of in closed form;
    it agrees with the closed form only to rounding."""
    eye = np.eye(3)
    x = rigid_pos.copy() if x_init is None else x_init.copy()
    for _ in range(80):
        d = r_o - x
        dist = np.linalg.norm(d)
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


def pull_rows_reference(
    config, pull, trial_id, solve=solve_equilibrium_reference, warm_start=False
):
    """True fruit positions and world-frame spring forces of a pull through
    the sample before the first whose noiseless force reaches ``force_cap``,
    evaluated on the whole window: a rigid grasp's rows at once, a compliant
    grasp's row by row with ``solve`` (by default
    ``solve_equilibrium_reference``) until a row reaches the cap or is left
    unsolved. ``warm_start`` starts each row's solve from the previous row's
    position, as the simulator once did; its rows agree with the default
    ones only to rounding."""
    rigid = pull["rigid"]
    if pull["comp_world"] is None:
        fruit = rigid
    else:
        rows = []
        for i, rigid_pos in enumerate(rigid):
            x_init = rows[-1] if warm_start and rows else None
            x = solve(pull["r_o"], rigid_pos, pull["comp_world"], config.k, config.l, x_init)
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


def generate_trial_reference(config, rng, trial_id="trial-0") -> SimTrialRecord:
    """One pull trial evaluated on the whole ``pull_distance`` window before
    the force cap is looked for: the package's ``generate_trial`` evaluates
    only a prefix of that window and must give the same bits, draw the same
    random numbers and raise the same errors."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            return _whole_window_trial(config, rng, trial_id)
        except (ArithmeticError, ValueError) as exc:
            raise SimulationConfigError(f"{trial_id}: {exc}") from exc


def _whole_window_trial(config, rng, trial_id):
    pull = draw_pull_reference(config, rng)
    fruit_true, forces_world = pull_rows_reference(config, pull, trial_id)
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
    trial = Trial(
        samples=samples,
        spring=SpringParams(config.k, config.l),
        grasp_point=config.grasp_point,
        label=Label.SUCCESS if pull["comp_world"] is None else Label.FAILURE,
        ground_truth=Vec3.from_array(pull["r_o"]),
        id=trial_id,
    )
    return SimTrialRecord(trial=trial)


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


def v1_samples(columns: dict) -> list:
    """A v1 document's ``samples`` for the sample ``columns`` (name →
    array), built sample by sample as plain JSON values."""
    rows = zip(*(columns[name].tolist() for name in COLUMN_WIDTHS))
    return [
        {
            "t": t,
            "pose": {"translation": translation, "rotation_wxyz": rotation},
            "wrench": {"force": force, "torque": torque},
        }
        for t, translation, rotation, force, torque in rows
    ]


def trial_to_dict(trial: Trial) -> dict:
    """The v1 trial document, built sample by sample as plain JSON values."""
    doc = _head(trial, 1)
    doc["samples"] = v1_samples({name: getattr(trial.samples, name) for name in COLUMN_WIDTHS})
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


def v2_bytes(trial: Trial) -> bytes:
    """A v2 trial file: ``dump_json`` of its v2 document, byte for byte what
    ``save_trial`` wrote before schema version 3."""
    return dump_json(trial_to_v2_dict(trial)).encode()


def v3_file(head: dict, columns: dict) -> bytes:
    """A v3 trial file: ``dump_json`` of ``head`` as given, a NUL byte, then
    the sample ``columns`` (name → array) in ``COLUMN_WIDTHS`` order, each
    value packed one by one as a little-endian double."""
    values = [v for name in COLUMN_WIDTHS for v in np.ravel(columns[name]).tolist()]
    return dump_json(head).encode() + b"\0" + struct.pack(f"<{len(values)}d", *values)


def v3_bytes(trial: Trial) -> bytes:
    """What ``save_trial`` writes for ``trial``: the v1 head at schema
    version 3 with ``sample_count``, then the columns, built value by value."""
    s = trial.samples
    head = {**_head(trial, 3), "sample_count": len(s)}
    return v3_file(head, {name: getattr(s, name) for name in COLUMN_WIDTHS})


def split_v3(data: bytes) -> tuple:
    """The parsed head and the body bytes of the v3 file ``data``."""
    head, body = data.split(b"\0", 1)
    return json.loads(head), body


def edit_v3_head(path, edit):
    """Rewrite the head of the v3 file at ``path`` as ``edit`` changes it."""
    head, body = split_v3(path.read_bytes())
    edit(head)
    path.write_bytes(dump_json(head).encode() + b"\0" + body)


def save_json_corpus(trials, out, version: int, *, sim_config_dict=None, seed=None):
    """A corpus of JSON trial files as stemfit wrote them before schema
    version 3: each trial as ``<id>.json`` holding its v1 or v2 file, and
    the manifest ``save_corpus`` writes, listing those files."""
    out.mkdir(parents=True)
    entries = []
    for trial in trials:
        entries.append({"id": trial.id, "label": trial.label.value, "file": f"{trial.id}.json"})
        data = v1_text(trial).encode() if version == 1 else v2_bytes(trial)
        (out / entries[-1]["file"]).write_bytes(data)
    manifest = {
        "schema_version": 1,
        "seed": seed,
        "sim_config": sim_config_dict,
        "config_digest": config_digest(sim_config_dict or {}),
        "trials": entries,
    }
    (out / MANIFEST_NAME).write_text(dump_json(manifest))


def corpus_files(corpus) -> dict:
    """Each trial id of the corpus at ``corpus`` → the path of its file, as
    the manifest names it."""
    return {entry["id"]: corpus / entry["file"] for entry in load_manifest(corpus)["trials"]}


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


def mean_force_start(trial: Trial) -> np.ndarray:
    """The first fruit position plus one resting length along the mean
    world-frame force: a start on sample 0's sphere, computed here so that a
    test of one run does not hang on the solver's initial guess."""
    arrays = TrialArrays.from_trial(trial)
    mean_force = arrays.force_world.mean(axis=0)
    return arrays.grasp_world[0] + arrays.l * (mean_force / float(np.linalg.norm(mean_force)))


def one_run(trial: Trial, x0=None, config: SolverConfig = SolverConfig()):
    """One run of the solver from ``x0`` (by default ``mean_force_start``), as
    ``fit`` makes each run: its best iterate, whether that iterate is
    certified, and its iterations."""
    x0 = mean_force_start(trial) if x0 is None else x0
    model = solver._Model(TrialArrays.from_trial(trial))
    with solver._one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        best, used, _ = solver._minimize_arrays(model, np.asarray(x0, dtype=float), config)
    return SimpleNamespace(
        iterate=best, converged=best.meets(config.constraint_tolerance), iterations=used
    )


class FitRecorder:
    """What the solver does while the recorder is installed. Each internal is
    wrapped for recording here alone, over whatever is installed when the
    recorder is made, so a stub put in first is recorded too. Per call of:

    - ``_minimize_arrays``, in ``runs``: its ``best`` iterate, iterations ``used``;
    - ``_metric``, in ``metrics``: (start, M); SLSQP's ``y`` is ``start + M @ y``;
    - ``_scipy_minimize``, in ``calls``: its run's start ``x0`` and ``metric``,
      its ``maxiter``, the point it returned (``end``), the rows its constraint
      function gave (``m``) and each (kind, point, value) handed to SLSQP
      (``received``);
    - ``_polish``, in ``polishes``: its ``start``, ``budget``, returned iterate
      (``end``) and iterations ``used``;
    - ``_on_sphere``, in ``spheres``: the point ``x`` given, ``centre``,
      ``radius`` and the ``point`` returned (None if it raised);
    - ``_Iterate``, in ``iterates``: the bytes of the point it evaluates;
    - ``numpy.linalg.lstsq``, in ``lstsq``: its arguments (in a fit, only
      ``_kkt_step`` calls it).

    ``stage`` is "run start", "sqp" or "polish" while one runs, else
    "between stages".
    """

    def __init__(self, monkeypatch):
        self.runs, self.metrics, self.calls, self.polishes, self.spheres = [], [], [], [], []
        self.iterates, self.lstsq, self.stage = [], [], None
        minimize_arrays, metric, polish = solver._minimize_arrays, solver._metric, solver._polish
        slsqp, on_sphere, lstsq = solver._scipy_minimize, solver._on_sphere, np.linalg.lstsq

        def run(model, x0, config):
            self.runs.append(ran := SimpleNamespace(best=None, used=None))
            ran.best, ran.used, noted = minimize_arrays(model, x0, config)
            return ran.best, ran.used, noted

        def metric_of(model, x):
            self.metrics.append((x.copy(), metric(model, x)))
            return self.metrics[-1][1]

        def handed(call, kind, fn):
            def evaluate(y):
                result = fn(y)
                if kind == "values" and call.m is None:
                    call.m = len(result)
                call.received.append((kind, call.x0 + call.metric @ y, np.copy(result)))
                return result

            return evaluate

        def sqp(fun, y0, *, jac, constraints, **kwargs):
            (cons,) = constraints
            start, m = self.metrics[-1]
            assert not y0.any()  # SLSQP starts at the run's start, y = 0
            maxiter = kwargs["options"]["maxiter"]
            call = SimpleNamespace(x0=start, metric=m, maxiter=maxiter, m=None, received=[])
            cons = {
                **cons,
                "fun": handed(call, "values", cons["fun"]),
                "jac": handed(call, "jacobian", cons["jac"]),
            }
            jac = handed(call, "gradient", jac)
            res = slsqp(handed(call, "cost", fun), y0, jac=jac, constraints=[cons], **kwargs)
            call.end = start + m @ res.x
            self.calls.append(call)
            return res

        def polished(start, model, ctol, budget):
            end, used = polish(start, model, ctol, budget)
            self.polishes.append(SimpleNamespace(start=start, budget=budget, end=end, used=used))
            return end, used

        def projected(x, centre, radius):
            call = SimpleNamespace(x=x.copy(), centre=centre, radius=radius, point=None)
            self.spheres.append(call)
            call.point = on_sphere(x, centre, radius)
            return call.point

        def solved(*args, **kwargs):
            self.lstsq.append(args)
            return lstsq(*args, **kwargs)

        iterates = self.iterates

        class Iterate(solver._Iterate):
            __slots__ = ()

            def __init__(self, x, model):
                iterates.append(x.tobytes())
                super().__init__(x, model)

        for name, recorded in (
            ("_minimize_arrays", self._staged("run start", run)),
            ("_metric", metric_of),
            ("_scipy_minimize", self._staged("sqp", sqp)),
            ("_polish", self._staged("polish", polished)),
            ("_on_sphere", projected),
            ("_Iterate", Iterate),
        ):
            monkeypatch.setattr(solver, name, recorded)
        monkeypatch.setattr(np.linalg, "lstsq", solved)

    def _staged(self, stage, fn):
        def call(*args, **kwargs):
            self.stage = stage
            try:
                return fn(*args, **kwargs)
            finally:
                self.stage = "between stages"

        return call

    def asked(self, kind) -> set:
        """The bytes of the points at which SLSQP asked for ``kind``."""
        return {x.tobytes() for call in self.calls for k, x, _ in call.received if k == kind}


def rigid_corpus():
    """Bias-compensated slow rigid pulls, about 2,000 samples each."""
    config = replace(SimConfig(seed=7), pull_speed=5.0 / 632.0 / 4.0)
    return [bias_compensate(record.trial) for record in generate_corpus(config, 4, 0.0)]


def recording_of(drive) -> FitRecorder:
    """A ``FitRecorder`` of what the solver does in ``drive()``, holding what
    ``drive`` returned as ``result``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder = FitRecorder(monkeypatch)
        recorder.result = drive()
    return recorder


class Sighting:
    """One trial of the behaviour pool, with the recording of its ``fit``,
    made the first time a behaviour asks for it."""

    def __init__(self, trial: Trial):
        self.trial = trial

    @functools.cached_property
    def fit(self) -> FitRecorder:
        return recording_of(lambda: solver.fit(self.trial))


@functools.cache
def _behaviour_pool() -> tuple:
    """The trials the finder scans, in this order, each bias-compensated as
    ``stemfit batch`` fits it: default-config success trials from
    ``default_rng(1)`` to ``default_rng(40)``, the failure corpora
    ``generate_corpus(SimConfig(seed=s), 4, 1.0)`` for s = 1 to 30, and
    ``rigid_corpus``."""
    success = [
        generate_trial(SimConfig(), np.random.default_rng(i), f"success_{i}").trial
        for i in range(1, 41)
    ]
    failure = [
        replace(made.trial, id=f"failure_{s}_{made.trial.id}")
        for s in range(1, 31)
        for made in generate_corpus(SimConfig(seed=s), 4, 1.0)
    ]
    return tuple(Sighting(bias_compensate(trial)) for trial in success + failure + rigid_corpus())


@functools.cache
def _first_showing(behaviour):
    return next((seen.trial for seen in _behaviour_pool() if behaviour(seen)), None)


def trial_showing(behaviour) -> Trial:
    """The first trial of the behaviour pool on which ``behaviour``, a
    predicate on a ``Sighting``, holds; the search and each recording are
    made once per session. Fails the test, naming the behaviour, when no
    pool trial shows it. Ask before the test patches anything: the pool's
    fits must be the package's own."""
    trial = _first_showing(behaviour)
    if trial is None:
        pytest.fail(f"no trial of the behaviour pool shows {behaviour.__name__}", pytrace=False)
    return trial
