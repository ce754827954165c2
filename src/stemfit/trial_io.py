"""Trial and corpus file formats.

Trials are single JSON documents with an explicit schema version; floats are
serialized at full round-trip precision so save/load is lossless. A trial file
is byte for byte ``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` of its
document, though ``dump_trial`` writes the samples without ``json``. A corpus is
a directory of trial files plus ``manifest.json`` listing ids, labels, the
generation seed, and a digest of the generating configuration. All writes go
through a temp-file-then-rename step.
"""

import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import Vec3
from .spring_model import Label, SampleColumns, SpringParams, Trial

TRIAL_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"

_QUAT_WARN_TOL = 1e-6
_QUAT_ERROR_TOL = 1e-3


def atomic_write_text(path, text: str):
    """Write ``text`` to ``path`` through a uniquely named temp file in the
    same directory, renamed over ``path`` once complete; the temp file is
    removed if the write fails. The new file's mode follows the umask."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path):
    """Parse a UTF-8 JSON file; undecodable or malformed contents raise ParseError."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # decode, syntax, or size/depth limits
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_digest(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _floats(values, shape: tuple, where: str) -> np.ndarray:
    """The one conversion every number in a trial file goes through: an array
    of ``shape`` holding finite floats, else a ValidationError naming ``where``."""
    try:
        array = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    if array.shape != shape:
        expected = f"a {shape[-1]}-element array" if shape else "a number"
        raise ValidationError(f"{where}: expected {expected}")
    if not np.isfinite(array).all():
        raise ValidationError(f"{where}: numbers must be finite")
    return array


def _column(rows: list, row_shape: tuple, where: str, name: str) -> np.ndarray:
    """Stack one field of every sample; on failure, name the first bad sample."""
    if not rows:
        return np.empty((0, *row_shape))
    try:
        return _floats(rows, (len(rows), *row_shape), f"{where}: samples: {name}")
    except ValidationError:
        for i, row in enumerate(rows):
            _floats(row, row_shape, f"{where}: samples[{i}]: {name}")
        raise


def _vec(v: Vec3) -> list:
    return [v.x, v.y, v.z]


# One sample as json.dumps(..., sort_keys=True, indent=2) lays it out inside a
# trial document; each %r takes float.__repr__, which is how json writes a float.
_SAMPLE = """\
    {
      "pose": {
        "rotation_wxyz": [
          %r,
          %r,
          %r,
          %r
        ],
        "translation": [
          %r,
          %r,
          %r
        ]
      },
      "t": %r,
      "wrench": {
        "force": [
          %r,
          %r,
          %r
        ],
        "torque": [
          %r,
          %r,
          %r
        ]
      }
    }"""


def dump_trial(trial: Trial) -> str:
    """The trial document exactly as ``dump_json`` would write it.

    The samples are written from the columns through ``_SAMPLE``; only the
    keys before and after ``"samples"`` go through ``dump_json``. This relies
    on what ``Trial`` validates: at least 2 samples (so the array is never the
    empty ``[]``), finite values (so no NaN check is needed) and fixed column
    widths (so every sample fills the template).
    """
    s = trial.samples
    values = np.column_stack((s.rotation_wxyz, s.translation, s.t, s.force, s.torque))
    samples = ",\n".join([_SAMPLE] * len(s)) % tuple(values.ravel().tolist())
    head = {"grasp_point": _vec(trial.grasp_point), "id": trial.id, "label": trial.label.value}
    if trial.ground_truth is not None:
        head["ground_truth"] = _vec(trial.ground_truth)
    tail = {
        "schema_version": TRIAL_SCHEMA_VERSION,
        "spring": {"k": trial.spring.k, "l": trial.spring.l},
    }
    # sort_keys puts "samples" after every head key and before every tail key;
    # the head's closing "\n}\n" and the tail's opening "{\n" are cut off by
    # position, so nothing in the id can move the join
    return (
        dump_json(head)[:-3]
        + ',\n  "samples": [\n'
        + samples
        + "\n  ],\n"
        + dump_json(tail)[2:]
    )


def _normalized_rotations(q: np.ndarray, source: str) -> np.ndarray:
    """Quaternions off unit norm by more than 1e-6 warn, by more than 1e-3
    fail; all are normalized here, once."""
    w, x, y, z = q.T
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    for tol, severe in ((_QUAT_ERROR_TOL, True), (_QUAT_WARN_TOL, False)):
        off = np.abs(norm - 1.0) > tol
        if off.any():
            i = int(np.argmax(off))
            where = f"{source}: samples[{i}]: rotation"
            if severe:
                raise ValidationError(
                    f"{where}: quaternion norm {norm[i]:.6f} deviates from 1 by "
                    f"more than {_QUAT_ERROR_TOL}"
                )
            warnings.warn(
                f"{where}: quaternion norm {norm[i]:.9f} off unit by more than "
                f"{_QUAT_WARN_TOL}; renormalizing",
                stacklevel=2,
            )
    return q / norm[:, None]


def trial_from_dict(doc: dict, source: str = "<memory>") -> Trial:
    if not isinstance(doc, dict):
        raise ValidationError(f"{source}: trial document must be a JSON object")
    version = doc.get("schema_version")
    if version != TRIAL_SCHEMA_VERSION:
        raise ValidationError(
            f"{source}: unsupported schema_version {version!r} "
            f"(expected {TRIAL_SCHEMA_VERSION})"
        )
    for field in ("id", "label", "spring", "grasp_point", "samples"):
        if field not in doc:
            raise ValidationError(f"{source}: missing required field '{field}'")
    try:
        label = Label(doc["label"])
    except ValueError:
        raise ValidationError(
            f"{source}: label must be 'success' or 'failure', got {doc['label']!r}"
        ) from None
    spring_doc = doc["spring"]
    if not isinstance(spring_doc, dict) or "k" not in spring_doc or "l" not in spring_doc:
        raise ValidationError(f"{source}: spring must be an object with 'k' and 'l'")
    k = _floats(spring_doc["k"], (), f"{source}: spring: k")
    l = _floats(spring_doc["l"], (), f"{source}: spring: l")
    try:
        spring = SpringParams(float(k), float(l))
    except ValueError as exc:
        raise ValidationError(f"{source}: spring: {exc}") from exc
    grasp_point = Vec3.from_array(_floats(doc["grasp_point"], (3,), f"{source}: grasp_point"))
    ground_truth = None
    if doc.get("ground_truth") is not None:
        ground_truth = Vec3.from_array(
            _floats(doc["ground_truth"], (3,), f"{source}: ground_truth")
        )

    raw_samples = doc["samples"]
    if not isinstance(raw_samples, list):
        raise ValidationError(f"{source}: samples must be an array")
    fields = {"t": [], "translation": [], "rotation_wxyz": [], "force": [], "torque": []}
    for i, raw in enumerate(raw_samples):
        where = f"{source}: samples[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{where}: expected an object")
        for field in ("t", "pose", "wrench"):
            if field not in raw:
                raise ValidationError(f"{where}: missing '{field}'")
        pose, wrench = raw["pose"], raw["wrench"]
        if not isinstance(pose, dict) or "translation" not in pose or "rotation_wxyz" not in pose:
            raise ValidationError(
                f"{where}: pose must contain 'translation' and 'rotation_wxyz'"
            )
        if not isinstance(wrench, dict) or "force" not in wrench or "torque" not in wrench:
            raise ValidationError(f"{where}: wrench must contain 'force' and 'torque'")
        fields["t"].append(raw["t"])
        fields["translation"].append(pose["translation"])
        fields["rotation_wxyz"].append(pose["rotation_wxyz"])
        fields["force"].append(wrench["force"])
        fields["torque"].append(wrench["torque"])

    try:
        columns = SampleColumns(
            t=_column(fields["t"], (), source, "t"),
            translation=_column(fields["translation"], (3,), source, "translation"),
            rotation_wxyz=_normalized_rotations(
                _column(fields["rotation_wxyz"], (4,), source, "rotation"), source
            ),
            force=_column(fields["force"], (3,), source, "force"),
            torque=_column(fields["torque"], (3,), source, "torque"),
        )
        return Trial(
            samples=columns,
            spring=spring,
            grasp_point=grasp_point,
            label=label,
            ground_truth=ground_truth,
            id=str(doc["id"]),
        )
    except ValueError as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def save_trial(trial: Trial, path):
    atomic_write_text(path, dump_trial(trial))


def load_trial(path) -> Trial:
    return trial_from_dict(read_json(path), source=str(path))


def save_corpus(trials, out_dir, *, sim_config_dict: dict | None = None, seed: int | None = None):
    """Write trials plus a manifest into ``out_dir`` (created if needed)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / MANIFEST_NAME
    if manifest_path.exists():
        raise FileExistsError(f"{manifest_path}: corpus manifest already exists")
    entries = []
    for trial in trials:
        filename = f"{trial.id}.json"
        save_trial(trial, out_dir / filename)
        entries.append({"id": trial.id, "label": trial.label.value, "file": filename})
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "seed": seed,
        "sim_config": sim_config_dict,
        "config_digest": config_digest(sim_config_dict or {}),
        "trials": entries,
    }
    atomic_write_text(manifest_path, dump_json(manifest))


def load_manifest(corpus_dir) -> dict:
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise ValidationError(f"{corpus_dir}: no {MANIFEST_NAME} found")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict) or manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise ValidationError(f"{manifest_path}: unsupported or missing schema_version")
    trials = manifest.get("trials")
    if not isinstance(trials, list) or not trials:
        raise ValidationError(f"{manifest_path}: manifest lists no trials")
    seen = set()
    for i, entry in enumerate(trials):
        where = f"{manifest_path}: trials[{i}]"
        if not isinstance(entry, dict) or not {"id", "label", "file"} <= set(entry):
            raise ValidationError(f"{where} must carry 'id', 'label', and 'file'")
        trial_id, file = entry["id"], entry["file"]
        if not isinstance(trial_id, str) or not isinstance(file, str):
            raise ValidationError(f"{where}: 'id' and 'file' must be strings")
        if trial_id in seen:
            raise ValidationError(f"{where}: duplicate id {trial_id!r}")
        seen.add(trial_id)
        # a relative path without '..' cannot leave the corpus directory
        parts = Path(file).parts
        if not parts or Path(file).is_absolute() or ".." in parts:
            raise ValidationError(
                f"{where}: 'file' must name a file inside the corpus directory, got {file!r}"
            )
    return manifest
