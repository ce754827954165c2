"""Property tests of the input boundaries: trial files (schema v1, v2 and
v3), sample columns, corpus files, report files, CLI config files, and fits
of extreme but finite trials."""

import base64
import copy
import json
import pickle
import shutil
import struct
import tempfile
import warnings
from argparse import Namespace
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemfit.batch import _ROW_KEYS, _UNFITTED_ROW, PLOT_KINDS, load_report, run_batch
from stemfit.cli import _sim_config, _solver_config, main
from stemfit.errors import EvaluationFailureError, StemfitError, ValidationError
from stemfit.geometry import UnitQuaternion, Vec3, _quaternion_norms
from stemfit.simulator import SimConfig, generate_corpus
from stemfit.solver import SolverConfig, fit
from stemfit.spring_model import (
    UNIT_QUATERNION_TOL,
    SampleColumns,
    SpringParams,
    Trial,
    TrialArrays,
    apple_position_world,
)
from stemfit.trial_io import (
    MANIFEST_NAME,
    _normalized_rotations,
    load_manifest,
    save_corpus,
    trial_from_dict,
)

from conftest import (
    apple_position_reference,
    assert_kernels_match_reference,
    encode_column,
    first_non_finite_reference,
    pull_trial,
    quaternion_norms_reference,
    rotation_matrix_stack_reference,
    save_json_corpus,
    split_v3,
    trial_check_reference,
    trial_to_dict,
    trial_to_v2_dict,
    v1_samples,
    v3_bytes,
    v3_file,
    wxyz,
)

COLUMN_WIDTHS = {"t": None, "translation": 3, "rotation_wxyz": 4, "force": 3, "torque": 3}

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats()
    | st.text(max_size=6)
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
finite = st.floats(allow_nan=False, allow_infinity=False)

BASE_TRIAL = pull_trial([0.3, 0.0, 0.5], n=3)
BASE_V3_HEAD, BASE_V3_BODY = split_v3(v3_bytes(BASE_TRIAL))
# the document of each version; a v3 head is read with its body
BASE_DOCS = {
    "v1": trial_to_dict(BASE_TRIAL),
    "v2": trial_to_v2_dict(BASE_TRIAL),
    "v3": BASE_V3_HEAD,
}
BODIES = {"v3": BASE_V3_BODY}
BASE64_TEXT = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=", max_size=24
)
# what a v2 column may hold: any base64-alphabet text, or the exact encoding
# of 0-12 arbitrary doubles (NaN and infinities included)
encoded_columns = BASE64_TEXT | arrays(
    float, st.integers(min_value=0, max_value=12), elements=st.floats()
).map(encode_column)
# v2 documents with a valid head and five columns of any encoded length, or
# with any part replaced by arbitrary JSON
v2_documents = st.fixed_dictionaries(
    {
        "schema_version": st.just(2),
        "id": st.just("x") | json_leaves,
        "label": st.just("success") | json_leaves,
        "spring": st.just({"k": 632.0, "l": 0.1}) | json_values,
        "grasp_point": st.just([0.0, 0.0, 0.0]) | json_values,
        "columns": st.fixed_dictionaries({name: encoded_columns for name in COLUMN_WIDTHS})
        | st.dictionaries(
            st.sampled_from(sorted(COLUMN_WIDTHS)) | st.text(max_size=3),
            encoded_columns | json_values,
            max_size=6,
        )
        | json_values,
    }
)


def _paths(node, prefix=()):
    """Every position in a JSON document, containers included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


def _leaf_paths(node, prefix=()):
    """Positions of the numbers in a JSON document."""
    return [p for p in _paths(node, prefix) if isinstance(_get(node, p), (int, float))]


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _set(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


@given(json_values | v2_documents)
def test_arbitrary_json_raises_only_stemfit_errors(value):
    try:
        trial_from_dict(value)
    except StemfitError:
        pass


@given(st.data(), st.sampled_from(sorted(BASE_DOCS)))
def test_any_one_value_replaced_raises_only_stemfit_errors(data, version):
    base = BASE_DOCS[version]
    path = data.draw(st.sampled_from(list(_paths(base))))
    doc = _set(copy.deepcopy(base), path, data.draw(json_values | encoded_columns))
    try:
        trial = trial_from_dict(doc, body=BODIES.get(version))
    except StemfitError:
        return
    assert len(trial.samples) >= 2


@given(st.data(), st.sampled_from(sorted(BASE_DOCS)))
def test_numbers_written_as_strings_or_booleans_are_rejected(data, version):
    base = BASE_DOCS[version]
    path = data.draw(st.sampled_from(_leaf_paths(base)))
    value = data.draw(st.sampled_from([repr(_get(base, path)), True, False]))
    with pytest.raises(ValidationError):
        trial_from_dict(_set(copy.deepcopy(base), path, value), body=BODIES.get(version))


SIM_CONFIG_DOC = SimConfig().to_dict()


def _python_form(name, value):
    """The config field ``name``, given in its JSON form ``value``, in the
    form SimConfig takes: a Vec3 for each point, tuples for arrays."""
    if name == "grasp_point":
        return Vec3(*value)
    if name == "attachment_region":
        return (Vec3(*value["min"]), Vec3(*value["max"]))
    if isinstance(value, list):
        return tuple(_python_form(name, entry) for entry in value)
    return value


@pytest.mark.parametrize(
    "path", _leaf_paths(SIM_CONFIG_DOC), ids=lambda path: ".".join(map(str, path))
)
def test_every_config_number_rejects_strings_booleans_and_null(path):
    """Each number of a config, replaced by its repr string, a boolean or
    null, is a ValueError naming its field, whether the config is read from
    its JSON form or built directly. A point's Python form is a Vec3, which
    applies the same rule and names its component."""
    name = path[0]
    named = rf"^{name}\b"
    if name in ("grasp_point", "attachment_region"):
        named = rf"^Vec3\.{'xyz'[path[-1]]} must be a number, got "
    for value in (repr(_get(SIM_CONFIG_DOC, path)), True, False, None):
        doc = _set(copy.deepcopy(SIM_CONFIG_DOC), path, value)
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            SimConfig.from_dict(doc)
        with pytest.raises(ValueError, match=named):
            SimConfig(**{name: _python_form(name, doc[name])})


CONFIG_FIELDS = sorted({*SimConfig().to_dict(), *SolverConfig().to_dict()})
config_objects = st.dictionaries(
    st.sampled_from(CONFIG_FIELDS) | st.text(max_size=6),
    json_values | st.fixed_dictionaries({"min": json_values, "max": json_values}),
    max_size=4,
)


# builds configs only: generate_trial evaluates the pull only up to the force
# cap, but an allowed config whose cap is never reached still costs a pull
# window of up to MAX_WINDOW_SAMPLES samples
@settings(deadline=None)
@given(config_objects | json_values)
def test_arbitrary_config_objects_raise_only_stemfit_errors(doc):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(doc))
        for load in (
            lambda: _sim_config(Namespace(config=str(path), seed=None)),
            lambda: _solver_config(Namespace(solver_config=str(path))),
        ):
            try:
                load()
            except StemfitError:
                pass


# the valid values of each kind in the report row table
KIND_VALUES = {
    "bool": st.booleans(),
    "count": st.integers(min_value=0) | st.integers(min_value=10**300, max_value=10**400),
    "number": st.none() | finite | st.integers(min_value=-(2**63), max_value=2**63),
    "vec3": st.none() | st.lists(finite, min_size=3, max_size=3),
}
ROW_VALUES = {
    "id": st.text(max_size=3),
    "label": st.sampled_from(["success", "failure"]),
    "status": st.just("ok"),
    **{key: KIND_VALUES[spec.kind] for key, spec in _ROW_KEYS.items()},
}
fitted_rows = st.fixed_dictionaries(ROW_VALUES)
error_rows = fitted_rows.map(lambda row: {**row, **_UNFITTED_ROW, "status": "error: unreadable"})
valid_timing = st.fixed_dictionaries(
    {"per_trial": st.dictionaries(st.text(max_size=3), finite, max_size=3)}
)
REMOVED = object()
# a fitted row as a batch writes it, with up to two of its keys given any
# JSON value or removed; or any JSON value at all
report_rows = (
    fitted_rows
    | st.tuples(
        fitted_rows,
        st.dictionaries(
            st.sampled_from(sorted(ROW_VALUES)), st.just(REMOVED) | json_values, max_size=2
        ),
    ).map(lambda pair: {k: v for k, v in {**pair[0], **pair[1]}.items() if v is not REMOVED})
    | json_values
)
report_documents = st.fixed_dictionaries(
    {
        "kind": st.just("stemfit-report"),
        "per_trial": st.lists(report_rows, max_size=3) | json_values,
    },
    optional={
        "timing": st.fixed_dictionaries(
            {"per_trial": st.dictionaries(st.text(max_size=3), finite | json_leaves, max_size=3)}
        )
        | json_values
    },
)


@settings(deadline=None)
@given(report_documents | json_values)
def test_arbitrary_report_files_give_only_stemfit_errors(doc):
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work) / "report.json", Path(work) / "out.csv"
        path.write_text(json.dumps(doc))
        for kind in PLOT_KINDS:
            argv = ["report", "--in", str(path), "--plot-data", kind, "--out", str(out)]
            assert main(argv) in (0, 1)  # a traceback would propagate out of main


@settings(deadline=None)
@given(
    st.fixed_dictionaries(
        {
            "kind": st.just("stemfit-report"),
            "per_trial": st.lists(fitted_rows | error_rows, max_size=3),
        },
        optional={"timing": valid_timing},
    )
)
def test_reports_of_valid_rows_give_their_tables(doc):
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work) / "report.json", Path(work) / "out.csv"
        path.write_text(json.dumps(doc))
        for kind in PLOT_KINDS:
            argv = ["report", "--in", str(path), "--plot-data", kind, "--out", str(out)]
            assert main(argv) == (1 if kind == "runtime_hist" and "timing" not in doc else 0)


def _column_strategy(n, width, unit_rows=False):
    shape = (n,) if width is None else (n, width)
    raw = arrays(float, shape, elements=finite)
    if unit_rows:
        bounded = arrays(float, shape, elements=st.floats(-1e3, 1e3))
        bounded = bounded.filter(lambda q: np.all(np.linalg.norm(q, axis=1) > 1e-3))
        return raw | bounded.map(lambda q: q / np.linalg.norm(q, axis=1)[:, None])
    if width is None:
        return raw | arrays(float, shape, elements=finite, unique=True).map(np.sort)
    return raw


@settings(suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.data(), st.integers(min_value=0, max_value=5))
def test_finite_columns_build_a_trial_or_raise_value_error(data, n):
    columns = {
        name: data.draw(_column_strategy(n, width, unit_rows=name == "rotation_wxyz"), label=name)
        for name, width in COLUMN_WIDTHS.items()
    }
    grasp = Vec3(*data.draw(st.tuples(finite, finite, finite), label="grasp"))
    truth = data.draw(st.none() | st.tuples(finite, finite, finite), label="ground_truth")
    with np.errstate(all="ignore"):
        try:
            trial = Trial(
                SampleColumns(**columns),
                SpringParams(1.0, 1.0),
                grasp,
                ground_truth=None if truth is None else Vec3(*truth),
            )
        except ValueError:
            return
    s = trial.samples
    assert len(s) == n >= 2
    assert np.all(np.diff(s.t) > 0.0)
    for name in COLUMN_WIDTHS:
        np.testing.assert_array_equal(getattr(s, name), columns[name])


@given(st.sampled_from(sorted(COLUMN_WIDTHS)), st.integers(min_value=0, max_value=4), finite)
def test_columns_cannot_be_written_in_place(name, row, value):
    trial = pull_trial([0.3, 0.0, 0.5], n=5)
    column = getattr(trial.samples, name)
    before = column.copy()
    with pytest.raises(ValueError, match="read-only"):
        column[row] = value
    with pytest.raises(FrozenInstanceError):
        setattr(trial.samples, name, before)
    np.testing.assert_array_equal(getattr(trial.samples, name), before)


def test_columns_do_not_alias_their_source():
    force = np.zeros((3, 3))
    samples = SampleColumns(
        t=[0.0, 1.0, 2.0],
        translation=np.zeros((3, 3)),
        rotation_wxyz=np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
        force=force,
        torque=np.zeros((3, 3)),
    )
    force[0, 0] = 1.0
    assert samples.force[0, 0] == 0.0


def test_columns_stay_read_only_through_pickle():
    trial = pull_trial([0.3, 0.0, 0.5], n=4)
    copied = pickle.loads(pickle.dumps(trial))
    for name in COLUMN_WIDTHS:
        column = getattr(copied.samples, name)
        np.testing.assert_array_equal(column, getattr(trial.samples, name))
        assert not column.flags.writeable


EPS = np.finfo(float).eps
unit_quaternion_rows = arrays(float, 4, elements=st.floats(-1.0, 1.0)).filter(
    lambda q: np.linalg.norm(q) > 1e-3
).map(lambda q: q / np.linalg.norm(q))


@st.composite
def checked_columns(draw):
    """Valid columns of 2-12 samples with defects written into them: NaN or
    an infinity at random entries of random columns, timestamps equal to or
    below their predecessor, and quaternions scaled to a norm within a few
    ulps of 1 +- 1e-9 (or far off it)."""
    n = draw(st.integers(min_value=2, max_value=12))
    steps = draw(arrays(float, n, elements=st.floats(1e-3, 1.0)))
    columns = {"t": np.cumsum(steps) + draw(st.floats(-1e3, 1e3))}
    for name in ("translation", "force", "torque"):
        columns[name] = draw(arrays(float, (n, 3), elements=st.floats(-1e3, 1e3)))
    unit = np.array(draw(st.lists(unit_quaternion_rows, min_size=n, max_size=n)))
    columns["rotation_wxyz"] = unit.copy()
    rows = st.integers(min_value=0, max_value=n - 1)
    scales = st.tuples(st.sampled_from([-1e-9, 1e-9]), st.integers(-4, 4)).map(
        lambda a: 1.0 + a[0] + a[1] * EPS
    ) | st.sampled_from([0.5, 1.0 + 1e-6, 1e200])
    for row, scale in draw(st.lists(st.tuples(rows, scales), max_size=3)):
        columns["rotation_wxyz"][row] = unit[row] * scale
    backs = st.tuples(st.integers(1, n - 1), st.floats(0.0, 2.0))
    for row, back in draw(st.lists(backs, max_size=2)):
        columns["t"][row] = columns["t"][row - 1] - back
    non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
    bad = st.tuples(st.sampled_from(sorted(COLUMN_WIDTHS)), rows, st.integers(0, 3), non_finite)
    for name, row, entry, value in draw(st.lists(bad, max_size=4)):
        column = columns[name]
        if column.ndim == 1:
            column[row] = value
        else:
            column[row, entry % column.shape[1]] = value
    return columns


def _documents_of(columns: dict) -> list:
    """A v1 document, a v2 document and a v3 head and body of the sample
    ``columns`` under ``BASE_TRIAL``'s head without its ground truth, each
    as the arguments of ``trial_from_dict``."""
    v1, v2, v3 = (copy.deepcopy(BASE_DOCS[version]) for version in ("v1", "v2", "v3"))
    v1["samples"] = v1_samples(columns)
    v2["columns"] = {name: encode_column(columns[name]) for name in COLUMN_WIDTHS}
    v3["sample_count"] = len(columns["t"])
    for doc in (v1, v2, v3):
        doc.pop("ground_truth", None)
    return [(v1, None), (v2, None), split_v3(v3_file(v3, columns))]


@settings(max_examples=300, deadline=None)
@given(checked_columns())
def test_trial_checks_agree_with_the_row_by_row_checks(columns):
    """``SampleColumns`` and ``Trial`` raise the reference's first failing
    check. A v1 document, a v2 document and a v3 file of the same columns
    read alike, and a non-finite entry is one message from all four:
    ``samples[i]: <column> must be finite``, after the source for a file."""
    expected = trial_check_reference(columns)
    try:
        Trial(SampleColumns(**columns), SpringParams(1.0, 1.0), Vec3(0.0, 0.0, 0.0))
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
    messages = []
    for doc, body in _documents_of(columns):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the renormalizing warning
            try:
                trial_from_dict(doc, body=body)
                messages.append(None)
            except ValidationError as exc:
                messages.append(str(exc))
    assert messages[0] == messages[1] == messages[2]
    if first_non_finite_reference(columns) is not None:
        assert messages == [f"<memory>: {expected}"] * 3


finite_moderate = st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None)
@given(
    unit_quaternion_rows,
    st.tuples(finite_moderate, finite_moderate, finite_moderate),
    arrays(float, (2, 3), elements=finite_moderate),
)
def test_first_pose_keeps_the_bits_of_a_rotation_stack(q, grasp, translation):
    trial = Trial(
        SampleColumns(
            t=[0.0, 1.0],
            translation=translation,
            rotation_wxyz=[q, q],
            force=np.zeros((2, 3)),
            torque=np.zeros((2, 3)),
        ),
        SpringParams(1.0, 1.0),
        Vec3(*grasp),
    )
    position = apple_position_world(trial).as_array()
    np.testing.assert_array_equal(position, apple_position_reference(trial))
    np.testing.assert_array_equal(position, TrialArrays.from_trial(trial).grasp_world[0])
    quaternion = UnitQuaternion(*q)
    np.testing.assert_array_equal(
        quaternion.rotation_matrix(),
        rotation_matrix_stack_reference(wxyz(quaternion)),
    )


@given(arrays(float, st.tuples(st.integers(0, 12), st.just(4)), elements=finite))
def test_quaternion_norms_keep_the_bits_of_a_sum_along_each_row(q):
    np.testing.assert_array_equal(_quaternion_norms(q), quaternion_norms_reference(q))


@given(st.lists(st.tuples(unit_quaternion_rows, st.integers(-8, 8)), min_size=1, max_size=12))
def test_normalized_rotations_divide_exactly_the_rows_off_unit(rows):
    """Rows scaled by up to 8 ulps, both sides of ``UNIT_QUATERNION_TOL`` (4 eps)."""
    q = np.array([row * (1.0 + k * EPS) for row, k in rows])
    norm = quaternion_norms_reference(q)
    off = np.abs(norm - 1.0) > UNIT_QUATERNION_TOL
    result = _normalized_rotations(q, "x")
    if not off.any():
        assert result is q
    np.testing.assert_array_equal(result[~off], q[~off])
    np.testing.assert_array_equal(result[off], q[off] / norm[off, None])


@pytest.fixture(scope="module")
def clean_corpora(tmp_path_factory):
    """Three clean trials saved as a v3 corpus, and as the v2 and v1
    corpora stemfit wrote before version 3."""
    root = tmp_path_factory.mktemp("props")
    cfg = replace(SimConfig(), noise_sigma=0.0, seed=5)
    trials = [r.trial for r in generate_corpus(cfg, 3, 0.0)]
    save_corpus(trials, root / "v3", sim_config_dict=cfg.to_dict(), seed=5)
    for version in (1, 2):
        out = root / f"v{version}"
        save_json_corpus(trials, out, version, sim_config_dict=cfg.to_dict(), seed=5)
    return root


def _truncated(data, text):
    # the file ends in "}\n": any shorter prefix is not a JSON document
    return text[: data.draw(st.integers(min_value=0, max_value=len(text) - 2))]


def _invalid_utf8(data, text):
    at = data.draw(st.integers(min_value=0, max_value=len(text)))
    return text[:at] + b"\xff" + data.draw(st.binary(max_size=4)) + text[at:]


def _bad_number(data, text):
    doc = json.loads(text)
    path = data.draw(st.sampled_from(_leaf_paths(doc)))
    value = data.draw(
        st.none()
        | st.integers(min_value=10**309, max_value=10**400)
        | st.lists(finite, min_size=2, max_size=3)
        | st.dictionaries(st.text(max_size=3), finite, max_size=2)
        | st.text(alphabet="#xyz", min_size=1, max_size=4)
    )
    return json.dumps(_set(doc, path, value)).encode()


def _not_a_trial(data, text):
    value = data.draw(
        json_values.filter(lambda v: not isinstance(v, dict) or "schema_version" not in v)
    )
    return json.dumps(value).encode()


def _bad_column(data, text):
    """One encoded column of a v2 file made unreadable: cut short, given a
    character outside the alphabet, given a non-finite value or a wrong
    value count, or replaced by a value that is not a string."""
    doc = json.loads(text)
    name = data.draw(st.sampled_from(sorted(COLUMN_WIDTHS)))
    encoded = doc["columns"][name]
    values = np.frombuffer(base64.b64decode(encoded), "<f8").copy()
    at = data.draw(st.integers(min_value=0, max_value=values.size - 1))
    non_finite = values.copy()
    non_finite[at] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    doc["columns"][name] = data.draw(
        st.sampled_from(
            [
                encoded[: -data.draw(st.integers(min_value=1, max_value=3))],
                encoded[:at] + data.draw(st.sampled_from("-_ .\u00e9")) + encoded[at:],
                encode_column(non_finite),
                encode_column(np.delete(values, at)),
                encode_column(np.append(values, values[at])),
            ]
        )
        | json_leaves.filter(lambda v: not isinstance(v, str))
    )
    return json.dumps(doc).encode()


def _cut(data, text):
    # every strict prefix of a v3 file, down to none of it
    return text[: data.draw(st.integers(min_value=0, max_value=len(text) - 1))]


def _nul_dropped(data, text):
    return text.replace(b"\0", b"", 1)


def _body_length(data, text):
    """A v3 body 1-111 bytes short of or beyond whole samples."""
    change = data.draw(st.integers(min_value=1, max_value=111))
    if data.draw(st.booleans()):
        return text[:-change]
    return text + data.draw(st.binary(min_size=change, max_size=change))


def _non_finite_entry(data, text):
    """NaN or an infinity written over one float64 entry of a v3 body."""
    body_start = text.index(b"\0") + 1
    at = body_start + 8 * data.draw(st.integers(0, (len(text) - body_start) // 8 - 1))
    value = struct.pack("<d", data.draw(st.sampled_from([np.nan, np.inf, -np.inf])))
    return text[:at] + value + text[at + 8 :]


def _bad_head_number(data, text):
    """One number of a v3 head replaced, as ``_bad_number`` replaces one."""
    head, body = text.split(b"\0", 1)
    return _bad_number(data, head) + b"\0" + body


CORRUPTIONS = {
    "truncated": _truncated,
    "invalid_utf8": _invalid_utf8,
    "bad_number": _bad_number,
    "not_a_trial": _not_a_trial,
    "bad_column": _bad_column,
    "cut": _cut,
    "nul_dropped": _nul_dropped,
    "body_length": _body_length,
    "non_finite_entry": _non_finite_entry,
    "bad_head_number": _bad_head_number,
}
JSON_CORRUPTIONS = ["bad_number", "invalid_utf8", "not_a_trial", "truncated"]
# a v1 file has no encoded columns, and only a v3 file has a body
VERSION_CORRUPTIONS = {
    "v1": JSON_CORRUPTIONS,
    "v2": sorted([*JSON_CORRUPTIONS, "bad_column"]),
    "v3": [
        "bad_head_number",
        "body_length",
        "cut",
        "invalid_utf8",
        "non_finite_entry",
        "not_a_trial",
        "nul_dropped",
    ],
}


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.data(), st.sampled_from(sorted(VERSION_CORRUPTIONS)), st.integers(min_value=0, max_value=2)
)
def test_one_corrupted_file_gives_exactly_one_error_row(clean_corpora, data, version, index):
    corruption = data.draw(st.sampled_from(VERSION_CORRUPTIONS[version]))
    with tempfile.TemporaryDirectory() as work:
        corpus = Path(work) / "corpus"
        shutil.copytree(clean_corpora / version, corpus)
        entry = load_manifest(corpus)["trials"][index]
        victim = corpus / entry["file"]
        victim.write_bytes(CORRUPTIONS[corruption](data, victim.read_bytes()))
        report = run_batch(corpus)
    errors = [r["id"] for r in report["per_trial"] if r["status"] != "ok"]
    assert errors == [entry["id"]]
    assert report["counts"]["failed"] == 1 and report["counts"]["fitted"] == 2


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.fixed_dictionaries(
        {"seed": json_values, "sim_config": json_values, "config_digest": json_values}
    )
)
def test_any_manifest_seed_and_config_give_only_stemfit_errors(clean_corpora, values):
    # a report copies these three manifest fields
    with tempfile.TemporaryDirectory() as work:
        corpus, report = Path(work) / "corpus", Path(work) / "report.json"
        shutil.copytree(clean_corpora / "v3", corpus)
        manifest = json.loads((corpus / MANIFEST_NAME).read_text())
        (corpus / MANIFEST_NAME).write_text(json.dumps({**manifest, **values}))
        code = main(["batch", "--corpus", str(corpus), "--report", str(report)])
        assert code in (0, 1)  # a traceback would propagate out of main
        assert report.exists() == (code == 0)
        if code == 0:
            assert load_report(report)["seed"] == values["seed"]


extreme = st.floats(min_value=-1e300, max_value=1e300)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def extreme_trials(draw):
    """Valid trials of 2-20 samples whose numbers reach +-1e300, and whose
    translations, forces and grasp point reach the largest finite float."""
    n = draw(st.integers(min_value=2, max_value=20))
    q = draw(
        arrays(float, (n, 4), elements=st.floats(-1.0, 1.0)).filter(
            lambda q: np.all(np.linalg.norm(q, axis=1) > 1e-3)
        )
    )
    samples = SampleColumns(
        t=draw(arrays(float, n, elements=extreme, unique=True).map(np.sort)),
        translation=draw(arrays(float, (n, 3), elements=finite)),
        rotation_wxyz=q / np.linalg.norm(q, axis=1)[:, None],
        force=draw(arrays(float, (n, 3), elements=finite)),
        torque=draw(arrays(float, (n, 3), elements=extreme)),
    )
    positive = st.floats(min_value=1e-300, max_value=1e300)
    spring = SpringParams(draw(positive), draw(positive))
    return Trial(samples, spring, Vec3(*draw(st.tuples(finite, finite, finite))))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(extreme_trials())
def test_fit_of_a_finite_trial_is_finite_or_an_evaluation_failure(trial):
    # unwrapped: pyproject turns a numpy warning that fit lets out into a failure
    try:
        result = fit(trial)
    except EvaluationFailureError:
        return
    assert np.isfinite([result.final_mse, result.max_constraint_violation]).all()
    assert np.isfinite(result.projected_gradient)
    assert np.isfinite(result.r_o_hat.as_array()).all()


@st.composite
def kernel_inputs(draw):
    """Model arrays of 1-40 samples and a point that is anywhere, on a
    sample, or a tiny step off one; moderate or extreme numbers."""
    n = draw(st.integers(min_value=1, max_value=40))
    values = draw(st.sampled_from([st.floats(-10.0, 10.0), extreme]))
    grasp = draw(arrays(float, (n, 3), elements=values))
    force = draw(arrays(float, (n, 3), elements=values))
    positive = st.floats(min_value=1e-300, max_value=1e300)
    model = TrialArrays(np.arange(n, dtype=float), grasp, force, draw(positive), draw(positive))
    point = draw(
        arrays(float, 3, elements=values)
        | st.integers(0, n - 1).flatmap(
            lambda i: arrays(float, 3, elements=st.floats(-1e-9, 1e-9)).map(
                lambda step: grasp[i] + step
            )
        )
    )
    return point, model


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_columnar_kernels_give_the_bits_of_the_row_formulas(inputs):
    point, model = inputs
    with np.errstate(over="ignore", invalid="ignore"):
        assert_kernels_match_reference(point, model)
