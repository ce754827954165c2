import base64
import json
import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemfit.batch import run_batch
from stemfit.cli import main
from stemfit.errors import ParseError, StemfitError, ValidationError
from stemfit.simulator import SimConfig, generate_corpus, generate_trial
from stemfit.geometry import Vec3
from stemfit.spring_model import Label, SampleColumns, SpringParams, Trial, apple_position_world
from stemfit.trial_io import (
    MANIFEST_NAME,
    atomic_write_text,
    dump_json,
    load_manifest,
    load_trial,
    save_corpus,
    _normalized_rotations,
    save_trial,
    trial_from_dict,
)

from conftest import (
    columns,
    corpus_files,
    encode_column,
    pull_trial,
    save_json_corpus,
    split_v3,
    trial_to_dict,
    trial_to_v2_dict,
    v1_text,
    v2_bytes,
    v3_bytes,
    v3_file,
)


def sim_trial(seed=1, **overrides):
    cfg = replace(SimConfig(), noise_sigma=0.05, **overrides)
    return generate_trial(cfg, np.random.default_rng(seed), f"t{seed}").trial


class TestTrialRoundTrip:
    def test_lossless_round_trip(self, tmp_path):
        trial = sim_trial()
        path = tmp_path / "t.json"
        save_trial(trial, path)
        loaded = load_trial(path)
        assert trial_to_dict(loaded) == trial_to_dict(trial)
        assert loaded.label is trial.label
        assert loaded.ground_truth == trial.ground_truth
        for name in ("t", "translation", "rotation_wxyz", "force", "torque"):
            np.testing.assert_array_equal(
                getattr(loaded.samples, name), getattr(trial.samples, name)
            )

    def test_serialization_is_byte_deterministic(self, tmp_path):
        trial = sim_trial()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_trial(trial, p1)
        save_trial(trial, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        save_trial(sim_trial(), tmp_path / "t.json")
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "t.json", "\ud800")  # a lone surrogate
        assert list(tmp_path.iterdir()) == []

    def test_minimal_two_sample_trial(self, tmp_path):
        trial = pull_trial([0.3, 0.0, 0.5], n=2)
        path = tmp_path / "min.json"
        save_trial(trial, path)
        assert len(load_trial(path).samples) == 2


def written(trial) -> bytes:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "t.trial"
        save_trial(trial, path)
        return path.read_bytes()


COLUMNS = ("t", "translation", "rotation_wxyz", "force", "torque")


def bits(trial) -> dict:
    """Each sample column of ``trial`` as the raw bits of its values."""
    return {name: getattr(trial.samples, name).view(np.uint64) for name in COLUMNS}


def loaded_from(data) -> Trial:
    """The trial loaded from a file holding ``data``: bytes, or a text
    written as UTF-8."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "t.trial"
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
        return load_trial(path)


def assert_loads_bit_exact(trial):
    """Saved as v3, ``trial`` loads to the bits it holds and to the bits its
    v2 file and its v1 document load to, and saves again to the same bytes."""
    saved = written(trial)
    from_v3 = loaded_from(saved)
    from_v2 = loaded_from(v2_bytes(trial))
    from_v1 = loaded_from(v1_text(trial))
    original, v3, v2, v1 = bits(trial), bits(from_v3), bits(from_v2), bits(from_v1)
    for name in COLUMNS:
        np.testing.assert_array_equal(v3[name], original[name])
        np.testing.assert_array_equal(v3[name], v2[name])
        np.testing.assert_array_equal(v3[name], v1[name])
    assert trial_to_dict(from_v3) == trial_to_dict(from_v2) == trial_to_dict(from_v1)
    assert written(from_v3) == saved


# floats whose shortest repr takes each of its forms: signed zero, subnormal,
# exponent below and above the fixed-point range, the largest double
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-05, 0.0001, 1e16, 1e22, 1.7976931348623157e308]
# ids that must stay inside the escaped "id" string
SPECIAL_IDS = ['"', "\\", '"samples": []', "\u00e9\u6837", "\ud800", '",\n  "samples": [\n']


def special_trial(trial_id="special", ground_truth=None) -> Trial:
    """Every special float in every column; quaternions of norm exactly 1."""
    n = 3
    values = np.resize(SPECIAL_FLOATS, (n, 3))
    samples = columns(
        np.array([-0.0, 1e-05, 1e22]),
        translation=values,
        rotation_wxyz=np.tile([-0.0, 5e-324, 1.0, 1e-200], (n, 1)),
        force=values[::-1],
        torque=-values,
    )
    return Trial(
        samples=samples,
        spring=SpringParams(632, 1e-05),
        grasp_point=Vec3(-0.0, 5e-324, 1e16),
        label=Label.FAILURE,
        ground_truth=ground_truth,
        id=trial_id,
    )


class TestTrialFileBytes:
    """A trial file is byte for byte ``dump_json`` of its v3 head, a NUL
    byte, and each column's values as little-endian float64 bytes."""

    def test_generated_corpus_files(self, tmp_path):
        cfg = replace(SimConfig(), noise_sigma=0.05, seed=31)
        records = generate_corpus(cfg, 6, 0.5)
        assert {r.trial.label for r in records} == {Label.SUCCESS, Label.FAILURE}
        # a slow rigid pull of 2,001 samples, as in the rigid-2000 benchmark, and
        # its first 2,000 and 1,999: the base64 of t in their v2 files ends in
        # "", "==" and "=", and the v2 reader takes each
        slow = sim_trial(seed=2, pull_speed=5.0 / 632.0 / 4.0)
        assert len(slow.samples) == 2001
        prefixes = [
            replace(
                slow,
                id=f"slow_{n}",
                samples=SampleColumns(*(getattr(slow.samples, name)[:n] for name in COLUMNS)),
            )
            for n in (2001, 2000, 1999)
        ]
        # columns given in Fortran order are written as their C-order bytes
        transposed = replace(
            slow,
            id="fortran",
            samples=SampleColumns(
                *(np.asfortranarray(getattr(slow.samples, name)) for name in COLUMNS)
            ),
        )
        trials = [r.trial for r in records] + prefixes + [transposed]
        save_corpus(trials, tmp_path, sim_config_dict=cfg.to_dict(), seed=31)
        files = corpus_files(tmp_path)
        for trial in trials:
            path = files[trial.id]
            assert path.name == f"{trial.id}.trial"
            assert path.read_bytes() == v3_bytes(trial)
            assert len(split_v3(path.read_bytes())[1]) == 112 * len(trial.samples)
        endings = [json.loads(v2_bytes(t))["columns"]["t"][-2:] for t in prefixes]
        assert [e.count("=") for e in endings] == [0, 2, 1]
        for trial in prefixes:
            from_v2 = bits(loaded_from(v2_bytes(trial)))
            for name, column in bits(trial).items():
                np.testing.assert_array_equal(from_v2[name], column)

    @pytest.mark.parametrize("trial_id", SPECIAL_IDS)
    @pytest.mark.parametrize("ground_truth", [None, Vec3(0.3, -0.0, 0.5)])
    def test_special_ids_and_values(self, trial_id, ground_truth):
        trial = special_trial(trial_id, ground_truth)
        assert written(trial) == v3_bytes(trial)
        assert loaded_from(written(trial)).id == trial_id


class TestBitExactRoundTrip:
    def test_special_values_keep_their_bits(self):
        trial = special_trial()
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "t.trial"
            save_trial(trial, path)
            loaded = load_trial(path)
        original, got = bits(trial), bits(loaded)
        for name in COLUMNS:  # these quaternions have norm exactly 1
            np.testing.assert_array_equal(got[name], original[name])
        assert np.signbit(loaded.samples.t[0]) and loaded.samples.rotation_wxyz[0, 1] == 5e-324
        assert loaded.samples.translation.max() == 1.7976931348623157e308
        assert_loads_bit_exact(trial)

    def test_generated_trials_load_to_the_same_bits_from_every_version(self):
        cfg = replace(SimConfig(), noise_sigma=0.05, seed=33)
        for record in generate_corpus(cfg, 4, 0.5):
            assert_loads_bit_exact(record.trial)

    def test_a_saved_trial_loads_with_its_bits_and_saves_again_to_them(self, tmp_path):
        # norms within rounding of 1 are kept: trial_009 of this corpus has a
        # quaternion of norm 1 - 2.2e-16, which a division by its norm moved
        cfg = replace(SimConfig(), noise_sigma=0.05, seed=101)
        path = tmp_path / "t.trial"
        for record in generate_corpus(cfg, 10, 0.4):
            save_trial(record.trial, path)
            loaded = load_trial(path)
            save_trial(loaded, path)
            for name, column in bits(record.trial).items():
                np.testing.assert_array_equal(bits(loaded)[name], column)
                np.testing.assert_array_equal(bits(load_trial(path))[name], column)

    def test_integer_spring_saves_loads_and_saves_again_to_the_same_bytes(self, tmp_path):
        # SpringParams stores floats, so the first save already writes 632.0
        first, again = tmp_path / "first.trial", tmp_path / "again.trial"
        save_trial(sim_trial(k=632), first)
        save_trial(load_trial(first), again)
        assert b'"k": 632.0,' in first.read_bytes().split(b"\0")[0]
        assert again.read_bytes() == first.read_bytes()

    def test_saved_file_is_smaller_than_v2_and_v1(self):
        trial = sim_trial()
        assert len(written(trial)) < len(v2_bytes(trial))
        assert len(written(trial)) < len(v1_text(trial).encode()) / 2

    def test_every_strict_prefix_is_an_error(self):
        data = written(pull_trial([0.3, 0.0, 0.5], n=3))
        assert len(loaded_from(data).samples) == 3
        for end in range(len(data)):
            with pytest.raises(StemfitError):
                loaded_from(data[:end])


float_values = st.sampled_from(SPECIAL_FLOATS + [-v for v in SPECIAL_FLOATS]) | st.floats(
    allow_nan=False, allow_infinity=False
)


def on_the_cube(q, axis, sign):
    """``q`` normalized after its entry ``axis`` is set to ``sign``: a point
    of the cube's surface, whose norm of at least 1 needs no filter. Every
    unit quaternion is one of these."""
    q = q.copy()
    q[axis] = sign
    return q / np.linalg.norm(q)


# a unit quaternion with tiny or signed-zero entries, or a normalized random
# one; each is within UNIT_QUATERNION_TOL of unit norm, so a Trial holds it
near_axis_rows = st.sampled_from([-0.0, 0.0, 5e-324, 1e-08]).flatmap(
    lambda small: st.permutations([1.0, small, -small, -0.0])
)
random_rows = st.builds(
    on_the_cube,
    arrays(float, 4, elements=st.floats(-1.0, 1.0)),
    st.integers(0, 3),
    st.sampled_from([-1.0, 1.0]),
)
unit_rows = near_axis_rows | random_rows
trial_ids = st.lists(st.sampled_from(SPECIAL_IDS) | st.text(max_size=3), max_size=4).map("".join)
vectors = st.tuples(float_values, float_values, float_values)


@settings(deadline=None)
@given(st.lists(st.tuples(unit_rows, st.floats(1.0 - 9.99e-4, 1.0 + 9.99e-4)), min_size=1))
def test_normalizing_twice_gives_the_bits_of_normalizing_once(rows):
    q = np.array([np.asarray(row) * scale for row, scale in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # off unit norm by more than 1e-6
        once = _normalized_rotations(q, "q")
        twice = _normalized_rotations(once, "q")
    np.testing.assert_array_equal(twice.view(np.uint64), once.view(np.uint64))


@st.composite
def ground_truths(draw, fruit: np.ndarray):
    """A point whose distance from ``fruit`` (``Vec3.norm``, a sum of
    squares) is finite and positive, or None where there is none. Each
    coordinate moves by at most 1e150, and one of them by at least 1e-150
    and twice its ulp, so no square overflows and that one does not round
    to 0. A coordinate beyond 1e160 stays: even its ulp would overflow."""
    free = np.abs(fruit) <= 1e160
    if not free.any() or not draw(st.booleans()):
        return None
    offset = np.where(free, draw(arrays(float, 3, elements=st.floats(-1e150, 1e150))), 0.0)
    i = draw(st.sampled_from(np.flatnonzero(free).tolist()))
    size = max(abs(offset[i]), 1e-150, 2.0 * np.spacing(abs(fruit[i])))
    offset[i] = math.copysign(size, offset[i])
    return Vec3.from_array(fruit + offset)


@st.composite
def trials(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    t = np.unique(draw(arrays(float, n, elements=float_values)))
    if t.size == 1:  # all n draws equal: add the next float toward 0 (5e-324 after a zero)
        t = np.unique([t[0], np.nextafter(t[0], 0.0 if t[0] else 1.0)])
    n = t.size
    positive = st.floats(min_value=5e-324, allow_infinity=False)
    spring_k = draw(st.integers(min_value=1, max_value=10**6) | positive)
    with np.errstate(all="ignore"):
        trial = Trial(
            samples=SampleColumns(
                t=t,
                translation=draw(arrays(float, (n, 3), elements=float_values)),
                rotation_wxyz=np.array(draw(st.lists(unit_rows, min_size=n, max_size=n))),
                force=draw(arrays(float, (n, 3), elements=float_values)),
                torque=draw(arrays(float, (n, 3), elements=float_values)),
            ),
            spring=SpringParams(spring_k, draw(positive)),
            grasp_point=Vec3(*draw(vectors)),
            label=draw(st.sampled_from(Label)),
            id=draw(trial_ids),
        )
        try:
            fruit = apple_position_world(trial).as_array()
        except ValueError:  # an overflowing fruit position has no ground truth
            return trial
        return replace(trial, ground_truth=draw(ground_truths(fruit)))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trials())
def test_any_trial_file_is_its_head_and_column_bytes(trial):
    assert written(trial) == v3_bytes(trial)
    assert_loads_bit_exact(trial)


# edits of a v1 document's samples that leave samples[1] without one of the
# five values it must hold
V1_SAMPLE_DEFECTS = {
    "sample_an_array": lambda samples: samples.__setitem__(1, [0.0, 1.0]),
    "sample_a_string": lambda samples: samples.__setitem__(1, "sample"),
    "sample_null": lambda samples: samples.__setitem__(1, None),
    "no_t": lambda samples: samples[1].pop("t"),
    "no_pose": lambda samples: samples[1].pop("pose"),
    "pose_an_array": lambda samples: samples[1].update(pose=[0.0, 0.0, 0.0]),
    "no_translation": lambda samples: samples[1]["pose"].pop("translation"),
    "no_rotation": lambda samples: samples[1]["pose"].pop("rotation_wxyz"),
    "wrench_a_number": lambda samples: samples[1].update(wrench=5),
    "no_force": lambda samples: samples[1]["wrench"].pop("force"),
    "no_torque": lambda samples: samples[1]["wrench"].pop("torque"),
}


class TestTrialValidationOnLoad:
    def doc(self):
        return trial_to_dict(pull_trial([0.3, 0.0, 0.5], n=3))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_trial(path)

    def test_decreasing_timestamps_name_the_sample(self):
        doc = self.doc()
        doc["samples"][2]["t"] = doc["samples"][0]["t"]
        with pytest.raises(ValidationError, match="samples\\[2\\]"):
            trial_from_dict(doc)

    def test_missing_field_named(self):
        doc = self.doc()
        del doc["spring"]
        with pytest.raises(ValidationError, match="spring"):
            trial_from_dict(doc)

    def test_missing_sample_field_named(self):
        doc = self.doc()
        del doc["samples"][1]["wrench"]
        with pytest.raises(ValidationError, match="samples\\[1\\].*wrench"):
            trial_from_dict(doc)

    def test_bad_label(self):
        doc = self.doc()
        doc["label"] = "maybe"
        with pytest.raises(ValidationError, match="label"):
            trial_from_dict(doc)

    def test_unknown_schema_version(self):
        doc = self.doc()
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            trial_from_dict(doc)

    def test_non_finite_number(self):
        doc = self.doc()
        doc["samples"][0]["wrench"]["force"][1] = "nan"
        with pytest.raises(ValidationError, match="samples\\[0\\]"):
            trial_from_dict(doc)

    @pytest.mark.parametrize(
        "path, named",
        [
            (("samples", 1, "wrench", "force", 0), "samples\\[1\\]: force"),
            (("samples", 2, "pose", "translation", 2), "samples\\[2\\]: translation"),
            (("samples", 0, "t"), "samples\\[0\\]: t"),
            (("grasp_point", 1), "grasp_point"),
            (("spring", "k"), "spring stiffness"),
        ],
    )
    def test_number_too_large_for_a_float(self, path, named):
        doc = self.doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 10**400
        with pytest.raises(ValidationError, match=named):
            trial_from_dict(doc)

    @pytest.mark.parametrize("bad_id", [None, 5, 1.5, True, [], {}])
    def test_id_must_be_a_string(self, tmp_path, capsys, bad_id):
        doc = self.doc()
        doc["id"] = bad_id
        with pytest.raises(ValidationError, match="^t.json: Trial.id must be str, got "):
            trial_from_dict(doc, source="t.json")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["fit", "--trial", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: Trial.id must be str, got ")
        assert "Traceback" not in err

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"id": "\xff"}')
        with pytest.raises(ParseError, match="invalid JSON"):
            load_trial(path)

    def test_empty_samples_rejected(self):
        doc = self.doc()
        doc["samples"] = []
        with pytest.raises(ValidationError, match="at least 2 samples"):
            trial_from_dict(doc)

    @pytest.mark.parametrize("samples", [{"t": 0.0}, "samples", None])
    def test_samples_must_be_an_array(self, samples):
        doc = self.doc()
        doc["samples"] = samples
        with pytest.raises(ValidationError, match="^<memory>: samples must be an array$"):
            trial_from_dict(doc)

    @pytest.mark.parametrize("defect", sorted(V1_SAMPLE_DEFECTS))
    def test_malformed_sample_named_with_the_keys_it_needs(self, defect):
        doc = self.doc()
        V1_SAMPLE_DEFECTS[defect](doc["samples"])
        message = (
            "t.json: samples[1]: expected an object with 't', 'pose' "
            "('translation', 'rotation_wxyz') and 'wrench' ('force', 'torque')"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            trial_from_dict(doc, source="t.json")

    @pytest.mark.parametrize("doc", [[], "trial", 5, None])
    def test_document_must_be_an_object(self, doc):
        message = "^<memory>: trial document must be a JSON object$"
        with pytest.raises(ValidationError, match=message):
            trial_from_dict(doc)

    @pytest.mark.parametrize("spring", [[632.0, 0.1], 632.0, {"k": 632.0}, {"l": 0.1}])
    def test_spring_must_be_an_object_with_k_and_l(self, spring):
        doc = self.doc()
        doc["spring"] = spring
        message = "^<memory>: spring must be an object with 'k' and 'l'$"
        with pytest.raises(ValidationError, match=message):
            trial_from_dict(doc)

    def test_grasp_point_needs_three_numbers(self):
        doc = self.doc()
        doc["grasp_point"] = [0.0, 0.05]
        message = "^<memory>: grasp_point must be an array of 3 numbers$"
        with pytest.raises(ValidationError, match=message):
            trial_from_dict(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "path, named",
        [
            (("spring", "k"), "spring stiffness"),
            (("grasp_point", 1), "grasp_point"),
            (("samples", 1, "wrench", "force", 0), "samples[1]: force"),
        ],
    )
    def test_json_nan_and_infinity_literals_rejected(self, path, named, value):
        doc = self.doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        text = json.dumps(doc)  # writes the literal NaN, Infinity or -Infinity
        assert "NaN" in text or "Infinity" in text
        with pytest.raises(ValidationError, match=f"{re.escape(named)} must be finite$"):
            loaded_from(text)

    def test_zero_spring_stiffness_in_a_file(self):
        doc = self.doc()
        doc["spring"]["k"] = 0
        with pytest.raises(
            ValidationError,
            match=r"/t\.trial: spring stiffness must be positive and finite, got 0\.0$",
        ):
            loaded_from(json.dumps(doc))

    def test_quaternion_norm_policy(self):
        doc = self.doc()
        # slightly off: silently renormalized
        doc["samples"][0]["pose"]["rotation_wxyz"] = [1.0 + 5e-8, 0.0, 0.0, 0.0]
        trial_from_dict(doc)
        # warn zone
        doc["samples"][0]["pose"]["rotation_wxyz"] = [1.0 + 5e-5, 0.0, 0.0, 0.0]
        with pytest.warns(UserWarning, match="renormalizing"):
            trial = trial_from_dict(doc)
        assert abs(trial.samples.rotation_wxyz[0, 0] - 1.0) < 1e-12
        # error zone
        doc["samples"][0]["pose"]["rotation_wxyz"] = [1.1, 0.0, 0.0, 0.0]
        with pytest.raises(ValidationError, match="quaternion norm"):
            trial_from_dict(doc)


def v2_doc():
    return trial_to_v2_dict(pull_trial([0.3, 0.0, 0.5], n=3))


def with_column(doc, name, values):
    doc["columns"][name] = encode_column(values)
    return doc


class TestV2ColumnsOnLoad:
    """Each defect in an encoded column is a ValidationError naming the column."""

    def test_v2_document_loads(self):
        trial = trial_from_dict(v2_doc())
        assert len(trial.samples) == 3 and trial.id == "pull"

    @pytest.mark.parametrize("value", [None, 5, ["AAAAAAAAAAA="], {"a": 1}])
    def test_column_not_a_string(self, value):
        doc = v2_doc()
        doc["columns"]["torque"] = value
        with pytest.raises(ValidationError, match="columns: torque: expected a base64 string"):
            trial_from_dict(doc)

    def test_missing_column(self):
        doc = v2_doc()
        del doc["columns"]["force"]
        with pytest.raises(ValidationError, match="columns: force"):
            trial_from_dict(doc)

    @pytest.mark.parametrize("value", [[], "AAAA", 5])
    def test_columns_not_an_object(self, value):
        doc = v2_doc()
        doc["columns"] = value
        with pytest.raises(ValidationError, match="columns must be an object"):
            trial_from_dict(doc)

    def test_missing_columns(self):
        doc = v2_doc()
        del doc["columns"]
        with pytest.raises(ValidationError, match="missing required field 'columns'"):
            trial_from_dict(doc)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: text[:-1],  # padding cut short
            lambda text: "-" + text[1:],  # outside the standard alphabet
            lambda text: text + "\n",
            lambda text: "\u00e9" + text,
            lambda text: text[:4] + "=" + text[4:],
        ],
    )
    def test_bad_base64(self, mangle):
        doc = v2_doc()
        doc["columns"]["translation"] = mangle(doc["columns"]["translation"])
        with pytest.raises(ValidationError, match="columns: translation: invalid base64"):
            trial_from_dict(doc)

    @pytest.mark.parametrize(
        "name, values",
        [
            ("translation", np.zeros((3, 2))),
            ("rotation_wxyz", np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))),
            ("force", np.zeros((2, 3))),
            ("torque", np.zeros(10)),
        ],
    )
    def test_wrong_value_count(self, name, values):
        doc = with_column(v2_doc(), name, values)
        with pytest.raises(ValidationError, match=f"columns: {name}: expected .* for 3 samples"):
            trial_from_dict(doc)

    def test_t_must_hold_whole_float64_values(self):
        doc = v2_doc()
        doc["columns"]["t"] = base64.b64encode(b"\0" * 20).decode()
        with pytest.raises(ValidationError, match="columns: t: 20 bytes"):
            trial_from_dict(doc)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name, row", [("force", 2), ("translation", 1), ("t", 0)])
    def test_non_finite_value_names_the_sample(self, name, row, bad):
        trial = pull_trial([0.3, 0.0, 0.5], n=3)
        values = getattr(trial.samples, name).copy()
        values[row] = bad
        doc = with_column(trial_to_v2_dict(trial), name, values)
        named = f"^<memory>: samples\\[{row}\\]: {name} must be finite$"
        with pytest.raises(ValidationError, match=named):
            trial_from_dict(doc)

    def test_decreasing_timestamps_name_the_sample(self):
        doc = with_column(v2_doc(), "t", [0.0, 0.002, 0.001])
        with pytest.raises(ValidationError, match="samples\\[2\\]: timestamp"):
            trial_from_dict(doc)

    @pytest.mark.parametrize("n", [0, 1])
    def test_two_sample_minimum(self, n):
        trial = pull_trial([0.3, 0.0, 0.5], n=3)
        doc = trial_to_v2_dict(trial)
        for name in COLUMNS:
            doc["columns"][name] = encode_column(getattr(trial.samples, name)[:n])
        with pytest.raises(ValidationError, match="at least 2 samples"):
            trial_from_dict(doc)

    def test_quaternion_norm_policy(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        q[0, 0] = 1.0 + 5e-8
        trial_from_dict(with_column(v2_doc(), "rotation_wxyz", q))
        q[0, 0] = 1.0 + 5e-5
        with pytest.warns(UserWarning, match="renormalizing"):
            trial = trial_from_dict(with_column(v2_doc(), "rotation_wxyz", q))
        assert abs(trial.samples.rotation_wxyz[0, 0] - 1.0) < 1e-12
        q[0, 0] = 1.1
        with pytest.raises(ValidationError, match="quaternion norm"):
            trial_from_dict(with_column(v2_doc(), "rotation_wxyz", q))


def v3_parts():
    """The head and sample columns of a 3-sample pull's v3 file, for a test
    to change before ``v3_file`` joins them."""
    trial = pull_trial([0.3, 0.0, 0.5], n=3)
    head, _ = split_v3(v3_bytes(trial))
    return head, {name: getattr(trial.samples, name).copy() for name in COLUMNS}


class TestV3FileOnLoad:
    """A file that holds a NUL byte is a v3 file: its JSON head before the
    NUL, exactly ``sample_count`` rows of column bytes after it. Each defect
    is an error naming the file."""

    def test_v3_file_loads(self):
        trial = loaded_from(v3_file(*v3_parts()))
        assert len(trial.samples) == 3 and trial.id == "pull"

    @pytest.mark.parametrize(
        "head", [b"{not json", b'{"id": "\xff"}', b""], ids=["malformed", "non-utf8", "empty"]
    )
    def test_head_that_does_not_parse(self, head):
        with pytest.raises(ParseError, match=r"/t\.trial: invalid JSON"):
            loaded_from(head + b"\0" + bytes(112 * 3))

    def test_head_without_a_body(self):
        head, _ = v3_parts()
        message = r"/t\.trial: a schema_version 3 head must be followed by a NUL byte"
        with pytest.raises(ValidationError, match=message):
            loaded_from(dump_json(head).encode())
        with pytest.raises(ValidationError, match="^<memory>: a schema_version 3 head must"):
            trial_from_dict(head)

    @pytest.mark.parametrize("version", [1, 2])
    def test_json_document_followed_by_binary_bytes(self, version):
        trial = pull_trial([0.3, 0.0, 0.5], n=3)
        text = v1_text(trial).encode() if version == 1 else v2_bytes(trial)
        message = (
            rf"/t\.trial: a schema_version {version} document must not be followed by "
            r"binary bytes$"
        )
        for tail in (b"\0", b"\0" + bytes(112 * 3), b"\0\xff"):
            with pytest.raises(ValidationError, match=message):
                loaded_from(text + tail)

    def test_unknown_schema_version(self):
        head, cols = v3_parts()
        head["schema_version"] = 4
        message = r"unsupported schema_version 4 \(expected 1, 2 or 3\)"
        with pytest.raises(ValidationError, match=message):
            loaded_from(v3_file(head, cols))

    @pytest.mark.parametrize("count", [-1, 3.0, True, False, "3", None, [3], 1.5])
    def test_sample_count_must_be_a_non_negative_integer(self, count):
        head, cols = v3_parts()
        head["sample_count"] = count
        message = (
            r"/t\.trial: sample_count must be a non-negative integer, got "
            rf"{re.escape(repr(count))}$"
        )
        with pytest.raises(ValidationError, match=message):
            loaded_from(v3_file(head, cols))

    def test_missing_sample_count(self):
        head, cols = v3_parts()
        del head["sample_count"]
        with pytest.raises(ValidationError, match="missing required field 'sample_count'"):
            loaded_from(v3_file(head, cols))

    @pytest.mark.parametrize("change", [-112, -111, -8, -1, 1, 8, 111, 112, 10**400])
    def test_body_of_the_wrong_length(self, change):
        head, cols = v3_parts()
        data = v3_file(head, cols)
        if change == 10**400:  # a sample count no file can hold
            head["sample_count"] = change
            data = v3_file(head, cols)
        elif change < 0:
            data = data[:change]
        else:
            data += bytes(change)
        message = r"/t\.trial: expected \d+ column bytes for \d+ samples"
        with pytest.raises(ValidationError, match=message):
            loaded_from(data)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize(
        "name, row", [("force", 2), ("translation", 1), ("t", 0), ("torque", 2)]
    )
    def test_non_finite_value_names_the_sample(self, name, row, bad):
        head, cols = v3_parts()
        cols[name][row] = bad
        message = rf"/t\.trial: samples\[{row}\]: {name} must be finite$"
        with pytest.raises(ValidationError, match=message):
            loaded_from(v3_file(head, cols))

    def test_decreasing_timestamps_name_the_sample(self):
        head, cols = v3_parts()
        cols["t"][2] = cols["t"][1] - 1e-3
        with pytest.raises(ValidationError, match="samples\\[2\\]: timestamp"):
            loaded_from(v3_file(head, cols))

    @pytest.mark.parametrize("n", [0, 1])
    def test_two_sample_minimum(self, n):
        head, cols = v3_parts()
        head["sample_count"] = n
        with pytest.raises(ValidationError, match="at least 2 samples"):
            loaded_from(v3_file(head, {name: column[:n] for name, column in cols.items()}))

    def test_quaternion_norm_policy(self):
        head, cols = v3_parts()
        cols["rotation_wxyz"][0, 0] = 1.0 + 5e-8
        loaded_from(v3_file(head, cols))
        cols["rotation_wxyz"][0, 0] = 1.0 + 5e-5
        with pytest.warns(UserWarning, match="renormalizing"):
            trial = loaded_from(v3_file(head, cols))
        assert abs(trial.samples.rotation_wxyz[0, 0] - 1.0) < 1e-12
        cols["rotation_wxyz"][0, 0] = 1.1
        with pytest.raises(ValidationError, match="quaternion norm"):
            loaded_from(v3_file(head, cols))

    def test_a_nul_inside_the_body_is_data(self):
        # only the first NUL ends the head; zero bytes in the columns are values
        head, cols = v3_parts()
        cols["force"][:] = 0.0
        trial = loaded_from(v3_file(head, cols))
        assert not trial.samples.force.any()


class TestHugeQuaternion:
    """A finite quaternion whose squared norm overflows is rejected with the
    norm error and no numpy warning (the suite turns RuntimeWarning into an
    error), from either schema and when built from columns."""

    def test_v1(self):
        doc = trial_to_dict(pull_trial([0.3, 0.0, 0.5], n=3))
        doc["samples"][1]["pose"]["rotation_wxyz"] = [1e200, 0.0, 0.0, 0.0]
        with pytest.raises(ValidationError, match="samples\\[1\\]: rotation: quaternion norm inf"):
            trial_from_dict(doc)

    def test_v2(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        q[1] = [1e200, 0.0, 0.0, 0.0]
        with pytest.raises(ValidationError, match="samples\\[1\\]: rotation: quaternion norm inf"):
            trial_from_dict(with_column(v2_doc(), "rotation_wxyz", q))

    def test_v3(self):
        head, cols = v3_parts()
        cols["rotation_wxyz"][1] = [1e200, 0.0, 0.0, 0.0]
        with pytest.raises(ValidationError, match="samples\\[1\\]: rotation: quaternion norm inf"):
            loaded_from(v3_file(head, cols))

    def test_trial_from_columns(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        q[2] = [0.0, -1e200, 0.0, 0.0]
        with pytest.raises(ValueError, match="samples\\[2\\]: rotation_wxyz .* is not a unit"):
            Trial(columns([0.0, 1.0, 2.0], rotation_wxyz=q), SpringParams(1.0, 1.0), Vec3(0, 0, 0))

    def test_overflowing_fruit_position_with_ground_truth(self):
        doc = trial_to_dict(pull_trial([0.3, 0.0, 0.5], n=3))
        doc["grasp_point"] = [1e308, 0.0, 0.0]
        doc["samples"][0]["pose"]["translation"] = [1e308, 0.0, 0.0]
        with pytest.raises(ValidationError, match="ground_truth must lie at a positive distance"):
            trial_from_dict(doc)


class TestFormatParity:
    """A corpus saved as v3, the same trials as a v2 corpus written the way
    ``save_corpus`` wrote one before version 3, and as v1 fit to the same
    report bytes, because every column loads to the same bits."""

    @pytest.mark.parametrize(
        "cfg, n, failure_fraction",
        [
            (replace(SimConfig(), seed=42), 6, 0.5),  # mixed, 12 samples a trial
            (replace(SimConfig(), seed=7, pull_speed=5.0 / 632.0 / 4.0), 2, 0.0),  # slow pull
        ],
        ids=["mixed", "slow_pull"],
    )
    def test_reports_and_columns_match(self, tmp_path, cfg, n, failure_fraction):
        trials = [r.trial for r in generate_corpus(cfg, n, failure_fraction)]
        save_corpus(trials, tmp_path / "v3", sim_config_dict=cfg.to_dict(), seed=cfg.seed)
        for version in (2, 1):
            out = tmp_path / f"v{version}"
            save_json_corpus(trials, out, version, sim_config_dict=cfg.to_dict(), seed=cfg.seed)
        files = {d: corpus_files(tmp_path / d) for d in ("v3", "v2", "v1")}
        for trial in trials:
            assert files["v3"][trial.id].name == f"{trial.id}.trial"
            assert split_v3(files["v3"][trial.id].read_bytes())[0]["schema_version"] == 3
            for version in (2, 1):
                path = files[f"v{version}"][trial.id]
                assert path.name == f"{trial.id}.json"
                assert json.loads(path.read_text())["schema_version"] == version
            v3, v2, v1 = (bits(load_trial(files[d][trial.id])) for d in ("v3", "v2", "v1"))
            for column in COLUMNS:
                np.testing.assert_array_equal(v3[column], v2[column])
                np.testing.assert_array_equal(v3[column], v1[column])
        reports = [dump_json(run_batch(tmp_path / d, jobs=1)) for d in ("v3", "v2", "v1")]
        assert reports[0] == reports[1] == reports[2]
        assert '"status": "ok"' in reports[0] and '"status": "error' not in reports[0]


class TestCorpus:
    def test_save_and_load(self, tmp_path):
        records = generate_corpus(SimConfig(seed=5), 6, 0.5)
        out = tmp_path / "corpus"
        save_corpus(
            [r.trial for r in records],
            out,
            sim_config_dict=SimConfig(seed=5).to_dict(),
            seed=5,
        )
        manifest = load_manifest(out)
        assert len(manifest["trials"]) == 6
        assert manifest["seed"] == 5
        assert manifest["config_digest"].startswith("sha256:")
        labels = [e["label"] for e in manifest["trials"]]
        assert labels.count(Label.FAILURE.value) == 3
        trials = [load_trial(out / e["file"]) for e in manifest["trials"]]
        assert [t.id for t in trials] == [e["id"] for e in manifest["trials"]]

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValidationError, match="manifest"):
            load_manifest(tmp_path / "empty")

    def test_empty_manifest_rejected(self, tmp_path):
        out = tmp_path / "c"
        out.mkdir()
        (out / MANIFEST_NAME).write_text(
            json.dumps({"schema_version": 1, "seed": 0, "trials": []})
        )
        with pytest.raises(ValidationError, match="no trials"):
            load_manifest(out)

    def test_boolean_schema_version_rejected(self, tmp_path, capsys):
        # JSON true equals 1 in Python; a manifest must say 1, as a trial file must
        records = generate_corpus(SimConfig(seed=5), 2, 0.0)
        out = tmp_path / "corpus"
        save_corpus([r.trial for r in records], out)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["schema_version"] = True
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="schema_version"):
            load_manifest(out)
        with pytest.raises(ValidationError, match="schema_version"):
            run_batch(out)
        report = tmp_path / "r.json"
        assert main(["batch", "--corpus", str(out), "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "schema_version" in err and "Traceback" not in err
        assert not report.exists()

    def test_existing_manifest_not_overwritten(self, tmp_path):
        records = generate_corpus(SimConfig(seed=5), 2, 0.0)
        out = tmp_path / "corpus"
        save_corpus([r.trial for r in records], out)
        with pytest.raises(FileExistsError):
            save_corpus([r.trial for r in records], out)

    def test_corpus_files_byte_deterministic(self, tmp_path):
        for name in ("a", "b"):
            records = generate_corpus(SimConfig(seed=11), 4, 0.25)
            save_corpus(
                [r.trial for r in records],
                tmp_path / name,
                sim_config_dict=SimConfig(seed=11).to_dict(),
                seed=11,
            )
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    @pytest.mark.parametrize(
        "ids, named",
        [
            (["same", "same"], "duplicate id 'same'"),
            (["ok", "../escaped"], "inside the corpus directory, got '../escaped.trial'"),
            (["/abs"], "inside the corpus directory"),
            (["a/../../b"], "inside the corpus directory"),
        ],
    )
    def test_rejects_ids_load_manifest_would_reject(self, tmp_path, ids, named):
        records = generate_corpus(SimConfig(seed=5), len(ids), 0.0)
        trials = [replace(r.trial, id=trial_id) for r, trial_id in zip(records, ids)]
        out = tmp_path / "work" / "corpus"
        with pytest.raises(ValidationError, match=named):
            save_corpus(trials, out)
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("bad_id", ["", ".", "..", "sub/x", "nul\0byte"])
    def test_rejects_ids_that_are_not_plain_file_names(self, tmp_path, bad_id):
        # the good trial comes first: nothing may be written before the bad id is seen
        records = generate_corpus(SimConfig(seed=5), 2, 0.0)
        trials = [records[0].trial, replace(records[1].trial, id=bad_id)]
        with pytest.raises(ValidationError, match=r"trials\[1\]: id .* is not a plain file name"):
            save_corpus(trials, tmp_path / "work" / "corpus")
        assert list(tmp_path.rglob("*")) == []

    # <id>.trial plus the 22 bytes of atomic_write_bytes's temp-name decoration
    # must fit in NAME_MAX (255) bytes: an id of at most 227 encoded bytes
    @pytest.mark.parametrize(
        "bad_id",
        ["\ud800", "x" * 300, "x" * 228, "\u00e9" * 114],
        ids=["lone-surrogate", "300-chars", "228-bytes", "228-bytes-utf8"],
    )
    def test_rejects_ids_the_file_system_cannot_take(self, tmp_path, bad_id):
        records = generate_corpus(SimConfig(seed=5), 2, 0.0)
        trials = [records[0].trial, replace(records[1].trial, id=bad_id)]
        with pytest.raises(ValidationError, match=r"trials\[1\]: id .* cannot name a file"):
            save_corpus(trials, tmp_path / "work" / "corpus")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("longest", ["x" * 227, "\u00e9" * 113 + "x"], ids=["ascii", "utf8"])
    def test_accepts_the_longest_id_that_fits(self, tmp_path, longest):
        records = generate_corpus(SimConfig(seed=5), 2, 0.0)
        trials = [records[0].trial, replace(records[1].trial, id=longest)]
        save_corpus(trials, tmp_path / "corpus")
        entry = load_manifest(tmp_path / "corpus")["trials"][1]
        assert entry["id"] == longest
        assert load_trial(tmp_path / "corpus" / entry["file"]).id == longest

    @pytest.mark.parametrize("bad_id", ["sub/x", ".."])
    def test_rejected_id_leaves_an_existing_directory_untouched(self, tmp_path, bad_id):
        out = tmp_path / "corpus"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        records = generate_corpus(SimConfig(seed=5), 2, 0.0)
        trials = [records[0].trial, replace(records[1].trial, id=bad_id)]
        with pytest.raises(ValidationError, match="not a plain file name"):
            save_corpus(trials, out)
        assert [p.name for p in out.rglob("*")] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_an_id_may_be_manifest(self, tmp_path):
        # its file, manifest.trial, sits beside manifest.json
        records = generate_corpus(SimConfig(seed=5), 2, 0.0)
        trials = [records[0].trial, replace(records[1].trial, id="manifest")]
        save_corpus(trials, tmp_path / "corpus")
        files = corpus_files(tmp_path / "corpus")
        assert files["manifest"].name == "manifest.trial"
        assert load_trial(files["manifest"]).id == "manifest"

    def test_load_manifest_accepts_a_hand_made_subdirectory_entry(self, tmp_path):
        record = generate_trial(SimConfig(), np.random.default_rng(5), "x")
        out = tmp_path / "corpus"
        (out / "sub").mkdir(parents=True)
        save_trial(replace(record.trial, id="sub/x"), out / "sub" / "x.json")
        entry = {"id": "sub/x", "label": "success", "file": "sub/x.json"}
        (out / MANIFEST_NAME).write_text(json.dumps({"schema_version": 1, "trials": [entry]}))
        assert load_manifest(out)["trials"] == [entry]
        report = run_batch(out)
        assert [(r["id"], r["status"]) for r in report["per_trial"]] == [("sub/x", "ok")]

    def test_rejects_an_empty_corpus(self, tmp_path):
        with pytest.raises(ValidationError, match="no trials"):
            save_corpus([], tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"sim_config_dict": {"k": math.nan}},
            {"sim_config_dict": {"k": math.inf}},
            {"seed": math.nan},
        ],
        ids=["nan-config", "infinite-config", "nan-seed"],
    )
    def test_rejects_a_non_finite_manifest_field_before_writing(self, tmp_path, fields):
        records = generate_corpus(SimConfig(seed=5), 2, 0.0)
        with pytest.raises(ValidationError, match="holds NaN or an infinity"):
            save_corpus([r.trial for r in records], tmp_path / "work" / "corpus", **fields)
        assert list(tmp_path.rglob("*")) == []

    def test_saved_corpus_passes_load_manifest(self, tmp_path):
        records = generate_corpus(SimConfig(seed=5), 3, 0.0)
        ids = ["x y", ".hidden", "\u00e9"]
        trials = [replace(r.trial, id=trial_id) for r, trial_id in zip(records, ids)]
        save_corpus(trials, tmp_path / "corpus")
        manifest = load_manifest(tmp_path / "corpus")
        assert [e["id"] for e in manifest["trials"]] == ids
        for entry in manifest["trials"]:
            assert load_trial(tmp_path / "corpus" / entry["file"]).id == entry["id"]
