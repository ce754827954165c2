"""Shared builders for synthetic trials and random geometry, plus the
references that tests hold the package to: the per-sample pose and wrench
mappings behind its stacked (columnar) computations, the row-wise (n, 3)
model formulas behind its columnar model kernels, and the trial document
behind its trial-file writer."""

import numpy as np
import pytest

from stemfit import spring_model
from stemfit.errors import SingularityError
from stemfit.geometry import UnitQuaternion, Vec3
from stemfit.spring_model import SINGULARITY_DISTANCE, SampleColumns, SpringParams, Trial
from stemfit.trial_io import TRIAL_SCHEMA_VERSION


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


def constraint_values_jacobian_reference(r_o, arrays):
    """Tension constraints ``l - |d_t|`` and their Jacobian rows, on the
    (n, 3) rows of ``arrays``."""
    d, dist = _row_displacements(r_o, arrays)
    return arrays.l - dist, -d / dist[:, None]


def min_sample_distance_reference(r_o, arrays):
    return float(np.linalg.norm(r_o[None, :] - arrays.grasp_world, axis=1).min())


def _result_or_message(fn, x, arrays):
    try:
        return fn(x, arrays)
    except SingularityError as exc:
        return str(exc)


def assert_kernels_match_reference(x, arrays):
    """The package's model kernels at ``x`` give the bits of the references
    (NaN matching NaN), or the same SingularityError message."""
    cost = _result_or_message(spring_model.cost_and_gradient, x, arrays)
    cost_ref = _result_or_message(cost_and_gradient_reference, x, arrays)
    constraints = _result_or_message(spring_model.constraint_values_jacobian, x, arrays)
    constraints_ref = _result_or_message(constraint_values_jacobian_reference, x, arrays)
    assert type(cost) is type(cost_ref)
    if isinstance(cost, str):
        assert cost == cost_ref and constraints == constraints_ref
    else:
        assert cost[0] == cost_ref[0] or (np.isnan(cost[0]) and np.isnan(cost_ref[0]))
        assert np.array_equal(cost[1], cost_ref[1], equal_nan=True)
        for got, want in zip(constraints, constraints_ref):
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
    distance = spring_model.min_sample_distance(x, arrays)
    distance_ref = min_sample_distance_reference(x, arrays)
    assert distance == distance_ref or (np.isnan(distance) and np.isnan(distance_ref))


def trial_to_dict(trial: Trial) -> dict:
    """The v1 trial document, built sample by sample as plain JSON values;
    a trial file holds exactly its ``json.dumps(..., sort_keys=True, indent=2)``."""
    s = trial.samples
    rows = zip(
        s.t.tolist(),
        s.translation.tolist(),
        s.rotation_wxyz.tolist(),
        s.force.tolist(),
        s.torque.tolist(),
    )
    doc = {
        "schema_version": TRIAL_SCHEMA_VERSION,
        "id": trial.id,
        "label": trial.label.value,
        "spring": {"k": trial.spring.k, "l": trial.spring.l},
        "grasp_point": [trial.grasp_point.x, trial.grasp_point.y, trial.grasp_point.z],
        "samples": [
            {
                "t": t,
                "pose": {"translation": translation, "rotation_wxyz": rotation},
                "wrench": {"force": force, "torque": torque},
            }
            for t, translation, rotation, force, torque in rows
        ],
    }
    if trial.ground_truth is not None:
        gt = trial.ground_truth
        doc["ground_truth"] = [gt.x, gt.y, gt.z]
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
