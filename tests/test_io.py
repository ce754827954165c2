import json
from dataclasses import replace

import numpy as np
import pytest

from stemfit.errors import ParseError, ValidationError
from stemfit.simulator import SimConfig, generate_corpus, generate_trial
from stemfit.spring_model import Label
from stemfit.trial_io import (
    MANIFEST_NAME,
    atomic_write_text,
    load_manifest,
    load_trial,
    save_corpus,
    save_trial,
    trial_from_dict,
    trial_to_dict,
)

from conftest import pull_trial


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
