"""Property tests of the input boundaries: trial documents, sample columns,
corpus files, CLI config files, and fits of extreme but finite trials."""

import copy
import json
import pickle
import shutil
import tempfile
from argparse import Namespace
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemfit.batch import run_batch
from stemfit.cli import _sim_config, _solver_config
from stemfit.errors import EvaluationFailureError, StemfitError
from stemfit.geometry import Vec3
from stemfit.simulator import SimConfig, generate_corpus
from stemfit.solver import SolverConfig, fit
from stemfit.spring_model import SampleColumns, SpringParams, Trial, TrialArrays
from stemfit.trial_io import save_corpus, trial_from_dict

from conftest import assert_kernels_match_reference, pull_trial, trial_to_dict

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

BASE_DOC = trial_to_dict(pull_trial([0.3, 0.0, 0.5], n=3))


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


@given(json_values)
def test_arbitrary_json_raises_only_stemfit_errors(value):
    try:
        trial_from_dict(value)
    except StemfitError:
        pass


@given(st.data())
def test_any_one_value_replaced_raises_only_stemfit_errors(data):
    path = data.draw(st.sampled_from(list(_paths(BASE_DOC))))
    doc = _set(copy.deepcopy(BASE_DOC), path, data.draw(json_values))
    try:
        trial = trial_from_dict(doc)
    except StemfitError:
        return
    assert len(trial.samples) >= 2


CONFIG_FIELDS = sorted({*SimConfig().to_dict(), *SolverConfig().to_dict()})
config_objects = st.dictionaries(
    st.sampled_from(CONFIG_FIELDS) | st.text(max_size=6),
    json_values | st.fixed_dictionaries({"min": json_values, "max": json_values}),
    max_size=4,
)


# builds configs only: an allowed config can still ask generate_trial for a
# pull window of up to MAX_WINDOW_SAMPLES samples
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


@pytest.fixture(scope="module")
def clean_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("props") / "corpus"
    cfg = replace(SimConfig(), noise_sigma=0.0, seed=5)
    records = generate_corpus(cfg, 3, 0.0)
    save_corpus([r.trial for r in records], out, sim_config_dict=cfg.to_dict(), seed=5)
    return out


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


CORRUPTIONS = {
    "truncated": _truncated,
    "invalid_utf8": _invalid_utf8,
    "bad_number": _bad_number,
    "not_a_trial": _not_a_trial,
}


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data(), st.sampled_from(sorted(CORRUPTIONS)), st.integers(min_value=0, max_value=2))
def test_one_corrupted_file_gives_exactly_one_error_row(clean_corpus, data, corruption, index):
    with tempfile.TemporaryDirectory() as work:
        corpus = Path(work) / "corpus"
        shutil.copytree(clean_corpus, corpus)
        victim = corpus / f"trial_{index:03d}.json"
        victim.write_bytes(CORRUPTIONS[corruption](data, victim.read_bytes()))
        report = run_batch(corpus)
    errors = [r["id"] for r in report["per_trial"] if r["status"] != "ok"]
    assert errors == [victim.stem]
    assert report["counts"]["failed"] == 1 and report["counts"]["fitted"] == 2


extreme = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def extreme_trials(draw):
    """Valid trials of 2-20 samples whose numbers reach +-1e300."""
    n = draw(st.integers(min_value=2, max_value=20))
    q = draw(
        arrays(float, (n, 4), elements=st.floats(-1.0, 1.0)).filter(
            lambda q: np.all(np.linalg.norm(q, axis=1) > 1e-3)
        )
    )
    samples = SampleColumns(
        t=draw(arrays(float, n, elements=extreme, unique=True).map(np.sort)),
        translation=draw(arrays(float, (n, 3), elements=extreme)),
        rotation_wxyz=q / np.linalg.norm(q, axis=1)[:, None],
        force=draw(arrays(float, (n, 3), elements=extreme)),
        torque=draw(arrays(float, (n, 3), elements=extreme)),
    )
    positive = st.floats(min_value=1e-300, max_value=1e300)
    spring = SpringParams(draw(positive), draw(positive))
    return Trial(samples, spring, Vec3(*draw(st.tuples(extreme, extreme, extreme))))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(extreme_trials())
def test_fit_of_a_finite_trial_is_finite_or_an_evaluation_failure(trial):
    with np.errstate(all="ignore"):
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
