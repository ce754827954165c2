import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemfit.errors import ParseError, ValidationError
from stemfit.simulator import SimConfig, generate_corpus, generate_trial
from stemfit.geometry import Vec3
from stemfit.spring_model import Label, SampleColumns, SpringParams, Trial
from stemfit.trial_io import (
    MANIFEST_NAME,
    atomic_write_text,
    load_manifest,
    load_trial,
    save_corpus,
    save_trial,
    trial_from_dict,
)

from conftest import columns, pull_trial, trial_to_dict


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


def json_text(trial) -> bytes:
    """What a trial file must hold: its document as json writes it."""
    doc = trial_to_dict(trial)
    return (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def written(trial) -> bytes:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "t.json"
        save_trial(trial, path)
        return path.read_bytes()


# floats whose shortest repr takes each of its forms: signed zero, subnormal,
# exponent below and above the fixed-point range, the largest double
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-05, 0.0001, 1e16, 1e22, 1.7976931348623157e308]
# ids that must stay inside the escaped "id" string
SPECIAL_IDS = ['"', "\\", '"samples": []', "\u00e9\u6837", "\ud800", '",\n  "samples": [\n']


class TestTrialFileBytes:
    """A trial file is byte for byte ``json.dumps(document, sort_keys=True,
    indent=2) + "\\n"`` of its trial document."""

    def test_generated_corpus_files(self, tmp_path):
        cfg = replace(SimConfig(), noise_sigma=0.05, seed=31)
        records = generate_corpus(cfg, 6, 0.5)
        assert {r.compliance_applied for r in records} == {False, True}
        save_corpus([r.trial for r in records], tmp_path, sim_config_dict=cfg.to_dict(), seed=31)
        for record in records:
            path = tmp_path / f"{record.trial.id}.json"
            assert path.read_bytes() == json_text(record.trial)

    @pytest.mark.parametrize("trial_id", SPECIAL_IDS)
    @pytest.mark.parametrize("ground_truth", [None, Vec3(0.3, -0.0, 0.5)])
    def test_special_ids_and_values(self, trial_id, ground_truth):
        n = 3
        values = np.resize(SPECIAL_FLOATS, (n, 3))
        samples = columns(
            np.array([-0.0, 1e-05, 1e22]),
            translation=values,
            rotation_wxyz=np.tile([-0.0, 5e-324, 1.0, 1e-05], (n, 1)),
            force=values[::-1],
            torque=-values,
        )
        trial = Trial(
            samples=samples,
            spring=SpringParams(632, 1e-05),
            grasp_point=Vec3(-0.0, 5e-324, 1e16),
            label=Label.FAILURE,
            ground_truth=ground_truth,
            id=trial_id,
        )
        assert written(trial) == json_text(trial)


float_values = st.sampled_from(SPECIAL_FLOATS + [-v for v in SPECIAL_FLOATS]) | st.floats(
    allow_nan=False, allow_infinity=False
)
# a unit quaternion with tiny or signed-zero entries, or a normalized random one
near_axis_rows = st.sampled_from([-0.0, 0.0, 5e-324, 1e-05]).flatmap(
    lambda small: st.permutations([1.0, small, -small, -0.0])
)
random_rows = (
    arrays(float, 4, elements=st.floats(-1.0, 1.0))
    .filter(lambda q: np.linalg.norm(q) > 1e-3)
    .map(lambda q: q / np.linalg.norm(q))
)
unit_rows = near_axis_rows | random_rows
trial_ids = st.lists(st.sampled_from(SPECIAL_IDS) | st.text(max_size=3), max_size=4).map("".join)
vectors = st.tuples(float_values, float_values, float_values)


@st.composite
def trials(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    t = draw(arrays(float, n, elements=float_values, unique=True).map(np.sort))
    positive = st.floats(min_value=5e-324, allow_infinity=False)
    spring_k = draw(st.integers(min_value=1, max_value=10**6) | positive)
    truth = draw(st.none() | vectors)
    with np.errstate(all="ignore"):
        try:
            return Trial(
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
                ground_truth=None if truth is None else Vec3(*truth),
                id=draw(trial_ids),
            )
        except ValueError:  # a ground truth too far away to measure
            reject()


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trials())
def test_any_trial_file_is_its_json_document(trial):
    assert written(trial) == json_text(trial)


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
            (("spring", "k"), "spring: k"),
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
