"""Trial and corpus file formats.

``save_trial`` writes schema version 3, a ``.trial`` file: the head keys
(``schema_version``, ``id``, ``label``, ``spring``, ``grasp_point``,
optional ``ground_truth``, and ``sample_count`` n) as ``dump_json`` text,
one NUL byte, which no JSON text holds, and then the sample columns
(``t``, ``translation``, ``rotation_wxyz``, ``force``, ``torque``, in
``COLUMN_WIDTHS`` order) as row-major little-endian float64 bytes, 112 per
sample. Save/load is bit-exact, and no number is formatted or parsed as
decimal text: the writer joins the column buffers, and the reader hands
``SampleColumns`` views of the bytes it read.
``load_trial`` also reads the two JSON versions that stemfit wrote before:
version 2 holds each column as the base64 text of the same bytes, and
version 1 one object per sample with decimal numbers, which is what a
hand-written or externally recorded file may still be. A corpus is a
directory of trial files plus ``manifest.json`` listing ids, labels, the
generation seed, and a digest of the generating configuration. All writes
go through one temp-file-then-rename step, which takes the file's bytes:
text is encoded to UTF-8 first, so a text that cannot be encoded fails
before any temp file exists.
"""

import base64
import functools
import hashlib
import json
import os
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import Vec3, _quaternion_norms, finite_numbers
from .spring_model import (
    COLUMN_WIDTHS,
    UNIT_QUATERNION_TOL,
    Label,
    SampleColumns,
    SpringParams,
    Trial,
)

TRIAL_SCHEMA_VERSION = 3
MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
# one sample of a v3 body: a float64 per entry of each column
SAMPLE_BYTES = 8 * sum(width or 1 for width in COLUMN_WIDTHS.values())

# the longest file name, in bytes, that common file systems take
NAME_MAX = 255

_QUAT_WARN_TOL = 1e-6
_QUAT_ERROR_TOL = 1e-3


def _temp_name(name: str) -> str:
    """A unique temp-file name for writing the file ``name``."""
    return f".{name}.{os.urandom(8).hex()}.tmp"


def atomic_write_bytes(path, data: bytes):
    """Write ``data`` to ``path`` through a uniquely named temp file in the
    same directory, renamed over ``path`` once complete; the temp file is
    removed if the write fails. The new file's mode follows the umask."""
    path = Path(path)
    tmp = path.with_name(_temp_name(path.name))
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str):
    """Write ``text`` as UTF-8 through ``atomic_write_bytes``. It is encoded
    before the temp file is created, so a text that cannot be encoded (a
    lone surrogate) raises UnicodeEncodeError and leaves no file behind."""
    atomic_write_bytes(path, text.encode("utf-8"))


def _parse_json(data: bytes, source: str):
    """Parse UTF-8 JSON ``data``; undecodable or malformed bytes raise ParseError."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # decode, syntax, or size/depth limits
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc


def read_json(path):
    """Parse a UTF-8 JSON file; undecodable or malformed contents raise ParseError."""
    return _parse_json(Path(path).read_bytes(), path)


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_digest(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _column(rows: list, row_shape: tuple, name: str) -> np.ndarray:
    """One field of every v1 sample as a float array, each value read by
    ``finite_numbers``; its ValueError names the first bad ``samples[i]``."""
    shape = (len(rows), *row_shape)
    try:
        return np.array(finite_numbers(f"samples: {name}", rows, shape), dtype=float).reshape(shape)
    except ValueError:
        for i, row in enumerate(rows):
            finite_numbers(f"samples[{i}]: {name}", row, row_shape)
        raise


def _vec(v: Vec3) -> list:
    return [v.x, v.y, v.z]


def _head(trial: Trial) -> dict:
    """The JSON head of a trial's v3 file."""
    doc = {
        "schema_version": TRIAL_SCHEMA_VERSION,
        "id": trial.id,
        "label": trial.label.value,
        "spring": {"k": trial.spring.k, "l": trial.spring.l},
        "grasp_point": _vec(trial.grasp_point),
        "sample_count": len(trial.samples),
    }
    if trial.ground_truth is not None:
        doc["ground_truth"] = _vec(trial.ground_truth)
    return doc


def _normalized_rotations(q: np.ndarray, source: str) -> np.ndarray:
    """Quaternions off unit norm by more than 1e-6 warn, by more than 1e-3
    fail; each one off by more than ``UNIT_QUATERNION_TOL`` is divided by its
    norm, and the rest are kept bit for bit: ``q`` itself when no row is off."""
    # an infinite norm (a finite entry beyond ~1e154) fails the check below
    norm = _quaternion_norms(q)
    deviation = np.abs(norm - 1.0)
    off_unit = deviation > UNIT_QUATERNION_TOL
    if not off_unit.any():
        return q
    for tol, severe in ((_QUAT_ERROR_TOL, True), (_QUAT_WARN_TOL, False)):
        off = deviation > tol
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
    return np.where(off_unit[:, None], q / norm[:, None], q)


def _v1_columns(doc: dict, source: str) -> dict:
    """The sample columns of a v1 document, which holds one object per sample."""
    raw_samples = doc["samples"]
    if not isinstance(raw_samples, list):
        raise ValidationError(f"{source}: samples must be an array")
    rows = []
    for i, raw in enumerate(raw_samples):
        try:
            t, pose, wrench = raw["t"], raw["pose"], raw["wrench"]
            rows.append(
                [t, pose["translation"], pose["rotation_wxyz"], wrench["force"], wrench["torque"]]
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"{source}: samples[{i}]: expected an object with 't', 'pose' "
                "('translation', 'rotation_wxyz') and 'wrench' ('force', 'torque')"
            ) from exc
    columns = [list(column) for column in zip(*rows)] or [[]] * len(COLUMN_WIDTHS)
    return {
        name: _column(values, () if width is None else (width,), name)
        for (name, width), values in zip(COLUMN_WIDTHS.items(), columns)
    }


def _v2_columns(doc: dict, source: str) -> dict:
    """The sample columns of a v2 document, which holds each column as the
    base64 text of its row-major little-endian float64 bytes; ``t`` fixes
    the sample count n, and each other column must hold exactly n rows."""
    encoded = doc["columns"]
    if not isinstance(encoded, dict):
        raise ValidationError(f"{source}: columns must be an object")
    columns = {}
    n = None
    for name, width in COLUMN_WIDTHS.items():
        where = f"{source}: columns: {name}"
        text = encoded.get(name)
        if not isinstance(text, str):
            raise ValidationError(f"{where}: expected a base64 string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise ValidationError(f"{where}: invalid base64: {exc}") from exc
        if n is None:
            n, extra = divmod(len(raw), 8)
            if extra:
                raise ValidationError(
                    f"{where}: {len(raw)} bytes is not a whole number of float64 values"
                )
        elif len(raw) != 8 * n * width:
            raise ValidationError(
                f"{where}: expected {n * width} float64 values for {n} samples, "
                f"got {len(raw)} bytes"
            )
        columns[name] = np.frombuffer(raw, "<f8").reshape((n,) if width is None else (n, width))
    return columns


def _v3_columns(doc: dict, source: str, *, body) -> dict:
    """The sample columns of a v3 file from ``body``, the bytes after its
    head: ``sample_count`` rows of each column in ``COLUMN_WIDTHS`` order,
    as row-major little-endian float64 bytes, and nothing else."""
    n = doc["sample_count"]
    if type(n) is not int or n < 0:  # a JSON true is a bool, not an int
        raise ValidationError(f"{source}: sample_count must be a non-negative integer, got {n!r}")
    if len(body) != SAMPLE_BYTES * n:
        raise ValidationError(
            f"{source}: expected {SAMPLE_BYTES * n} column bytes for {n} samples "
            f"after the head, got {len(body)}"
        )
    columns, offset = {}, 0
    for name, width in COLUMN_WIDTHS.items():
        shape = (n,) if width is None else (n, width)
        columns[name] = np.frombuffer(body, "<f8", n * (width or 1), offset).reshape(shape)
        offset += columns[name].nbytes
    return columns


def trial_from_dict(doc: dict, source: str = "<memory>", body=None) -> Trial:
    """Build a trial from a parsed v1 or v2 document, or from a v3 head and
    ``body``, the bytes that follow its NUL: the head, then the columns, go
    into the types that check them (``SpringParams``, ``Vec3``,
    ``SampleColumns``, ``Trial``), and any defect is a ValidationError
    naming ``source`` and the field."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{source}: trial document must be a JSON object")
    version = doc.get("schema_version")
    if version is True or version not in (1, 2, 3):  # JSON true equals 1 in Python
        raise ValidationError(
            f"{source}: unsupported schema_version {version!r} (expected 1, 2 or 3)"
        )
    if version == 3:
        if body is None:
            raise ValidationError(
                f"{source}: a schema_version 3 head must be followed by a NUL byte and its columns"
            )
        field, read_columns = "sample_count", functools.partial(_v3_columns, body=body)
    elif body is not None:
        raise ValidationError(
            f"{source}: a schema_version {version!r} document must not be followed by binary bytes"
        )
    else:
        field, read_columns = ("samples", _v1_columns) if version == 1 else ("columns", _v2_columns)
    for name in ("id", "label", "spring", "grasp_point", field):
        if name not in doc:
            raise ValidationError(f"{source}: missing required field '{name}'")
    try:
        label = Label(doc["label"])
    except ValueError:
        raise ValidationError(
            f"{source}: label must be 'success' or 'failure', got {doc['label']!r}"
        ) from None
    spring_doc = doc["spring"]
    if not isinstance(spring_doc, dict) or "k" not in spring_doc or "l" not in spring_doc:
        raise ValidationError(f"{source}: spring must be an object with 'k' and 'l'")
    try:
        spring = SpringParams(spring_doc["k"], spring_doc["l"])
        grasp_point = Vec3(*finite_numbers("grasp_point", doc["grasp_point"], (3,)))
        ground_truth = doc.get("ground_truth")
        if ground_truth is not None:
            ground_truth = Vec3(*finite_numbers("ground_truth", ground_truth, (3,)))
        samples = SampleColumns(**read_columns(doc, source))
        rotations = _normalized_rotations(samples.rotation_wxyz, source)
        if rotations is not samples.rotation_wxyz:
            samples = replace(samples, rotation_wxyz=rotations)
        return Trial(
            samples, spring, grasp_point, label=label, ground_truth=ground_truth, id=doc["id"]
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def save_trial(trial: Trial, path):
    """Write ``trial`` as a v3 file: ``dump_json`` of its head, a NUL byte,
    and the bytes of its columns, joined from the column buffers."""
    s = trial.samples
    parts = [dump_json(_head(trial)).encode(), b"\0"]
    parts += (getattr(s, name).astype("<f8", copy=False) for name in COLUMN_WIDTHS)
    atomic_write_bytes(path, b"".join(parts))


def load_trial(path) -> Trial:
    """Read a trial file: a v3 file if it holds a NUL byte, which ends its
    JSON head, else a v1 or v2 JSON document."""
    data = Path(path).read_bytes()
    end = data.find(b"\0")
    if end < 0:
        return trial_from_dict(_parse_json(data, path), source=str(path))
    head = _parse_json(data[:end], path)
    return trial_from_dict(head, source=str(path), body=memoryview(data)[end + 1 :])


def save_corpus(trials, out_dir, *, sim_config_dict: dict | None = None, seed: int | None = None):
    """Write trials plus a manifest into ``out_dir`` (created if needed).

    Each trial goes to ``<id>.trial``. The manifest entries pass
    ``load_manifest``'s checks, and each id must be a plain file name (not
    empty, ``.`` or ``..``, and without a path separator or NUL) that the
    file system can take: ``<id>.trial`` must encode
    to file-system bytes, and the temp name ``atomic_write_bytes`` writes it
    through must fit in ``NAME_MAX`` bytes. The manifest, ``seed`` and
    ``sim_config_dict`` included, must hold no NaN or infinity. All of this
    is checked before any file is written; otherwise a ValidationError
    leaves ``out_dir`` untouched."""
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    trials = list(trials)
    entries = [
        {"id": trial.id, "label": trial.label.value, "file": f"{trial.id}.trial"}
        for trial in trials
    ]
    _check_entries(entries, str(manifest_path))
    for i, entry in enumerate(entries):
        trial_id = entry["id"]
        if trial_id in ("", ".", "..") or any(sep in trial_id for sep in ("/", os.sep, "\0")):
            raise ValidationError(
                f"{manifest_path}: trials[{i}]: id {trial_id!r} is not a plain file "
                f"name (an id may not be empty, '.' or '..', or hold a path separator or NUL)"
            )
        try:
            fits = len(os.fsencode(_temp_name(entry["file"]))) <= NAME_MAX
        except UnicodeEncodeError:
            fits = False
        if not fits:
            raise ValidationError(
                f"{manifest_path}: trials[{i}]: id {trial_id!r} cannot name a file: "
                f"{entry['file']!r} must encode to at most "
                f"{NAME_MAX - len(_temp_name(''))} file-system bytes"
            )
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "seed": seed,
        "sim_config": sim_config_dict,
        "config_digest": config_digest(sim_config_dict or {}),
        "trials": entries,
    }
    manifest_text = _manifest_json(manifest, manifest_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    if manifest_path.exists():
        raise FileExistsError(f"{manifest_path}: corpus manifest already exists")
    for trial, entry in zip(trials, entries):
        save_trial(trial, out_dir / entry["file"])
    atomic_write_text(manifest_path, manifest_text)


def _manifest_json(manifest: dict, manifest_path) -> str:
    """``dump_json`` of a manifest; a NaN or an infinity anywhere in it
    raises ValidationError, because a report copies its seed, sim_config,
    config_digest and labels."""
    try:
        return dump_json(manifest)
    except ValueError as exc:
        raise ValidationError(f"{manifest_path}: holds NaN or an infinity") from exc


def _check_entries(trials, where: str):
    """The manifest's trial list: at least one entry, each with a string
    ``id`` (unique) and a string ``file`` that is a relative path without
    ``..``, so it names a file inside the corpus directory."""
    if not isinstance(trials, list) or not trials:
        raise ValidationError(f"{where}: manifest lists no trials")
    seen = set()
    for i, entry in enumerate(trials):
        at = f"{where}: trials[{i}]"
        if not isinstance(entry, dict) or not {"id", "label", "file"} <= set(entry):
            raise ValidationError(f"{at} must carry 'id', 'label', and 'file'")
        trial_id, file = entry["id"], entry["file"]
        if not isinstance(trial_id, str) or not isinstance(file, str):
            raise ValidationError(f"{at}: 'id' and 'file' must be strings")
        if trial_id in seen:
            raise ValidationError(f"{at}: duplicate id {trial_id!r}")
        seen.add(trial_id)
        parts = Path(file).parts
        if not parts or Path(file).is_absolute() or ".." in parts:
            raise ValidationError(
                f"{at}: 'file' must name a file inside the corpus directory, got {file!r}"
            )


def load_manifest(corpus_dir) -> dict:
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise ValidationError(f"{corpus_dir}: no {MANIFEST_NAME} found")
    manifest = read_json(manifest_path)
    version = manifest.get("schema_version") if isinstance(manifest, dict) else None
    if version != MANIFEST_SCHEMA_VERSION or version is True:  # JSON true equals 1 in Python
        raise ValidationError(f"{manifest_path}: unsupported or missing schema_version")
    _check_entries(manifest.get("trials"), str(manifest_path))
    _manifest_json(manifest, manifest_path)
    return manifest
