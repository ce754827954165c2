"""Shared builders for synthetic trials and random geometry, plus the
references that tests hold the package to: the per-sample pose and wrench
mappings behind its stacked (columnar) computations, and the trial document
behind its trial-file writer."""

import numpy as np
import pytest

from stemfit.geometry import UnitQuaternion, Vec3
from stemfit.spring_model import SampleColumns, SpringParams, Trial
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
