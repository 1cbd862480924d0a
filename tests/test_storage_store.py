"""StreamStore tests: segment/resegment bit-identity, audits, CLI commands.

The headline acceptance criterion of ISSUE 9: a stream ingested through the
chunk store, segmented, then ``resegment``-ed from a mid-stream T produces
**bit-identical** change points / scores / p-values to a single
uninterrupted in-RAM :func:`repro.api.stream` run.
"""

import json

import numpy as np
import pytest

from repro import api
from repro.api.checkpoint import read_payload_file, write_payload_file
from repro.cli import main
from repro.storage import StreamStore, diff_change_points, replay_events
from repro.storage.checkpoints import snapshot_row
from repro.utils.exceptions import ConfigurationError, StorageError

CLASS_CONFIG = {"window_size": 600, "scoring_interval": 20}


@pytest.fixture
def store(tmp_path):
    return StreamStore(tmp_path / "store", segment_rows=1_000, fsync=False)


@pytest.fixture
def shifting(rng):
    """Three regimes with two clear mean shifts."""
    return np.concatenate(
        [rng.normal(0, 1, 2_000), rng.normal(5, 1, 2_000), rng.normal(-4, 1, 2_000)]
    )


class TestSegment:
    def test_records_events_checkpoints_and_run(self, store, shifting):
        store.ingest("s", shifting)
        run = store.segment("s", "ddm", chunk_size=256, checkpoint_every=1_000)
        assert run.n_seen == 6_000
        assert run.n_checkpoints >= 6  # birth + one per 1000 observations
        assert len(run.change_points) >= 1
        meta = store.run_meta("s")
        assert meta["detector"] == "ddm"
        assert meta["change_points"] == run.change_points
        # the durable log replays the exact same typed events
        with store.event_log("s") as log:
            kinds = [type(e).kind for e in replay_events(log)]
        assert kinds.count("change_point") == len(run.change_points)

    def test_resegment_requires_a_recorded_run(self, store, shifting):
        store.ingest("s", shifting)
        with pytest.raises(StorageError, match="no recorded run"):
            store.resegment("s")

    def test_checkpoint_positions_follow_cadence(self, store, shifting):
        store.ingest("s", shifting)
        store.segment("s", "ddm", chunk_size=500, checkpoint_every=2_000)
        positions = store.checkpoint_index("s").positions()
        assert positions[0] == 0
        assert all(b - a >= 2_000 for a, b in zip(positions, positions[1:]))

    def test_segment_replaces_previous_run(self, store, shifting):
        store.ingest("s", shifting)
        store.segment("s", "ddm", checkpoint_every=1_000)
        run2 = store.segment("s", "page-hinkley", checkpoint_every=3_000)
        assert store.run_meta("s")["detector"] == "page-hinkley"
        with store.event_log("s") as log:
            assert len(log) == run2.n_events

    def test_bad_checkpoint_cadence_rejected(self, store, shifting):
        store.ingest("s", shifting)
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            store.segment("s", "ddm", checkpoint_every=0)


class TestResegmentBitIdentity:
    @pytest.mark.parametrize("detector", ["ddm", "page-hinkley"])
    def test_resegment_mid_t_matches_fresh_in_ram_run(self, store, shifting, detector):
        """The acceptance criterion, for two detector families."""
        store.ingest("s", shifting)
        run = store.segment("s", detector, chunk_size=256, checkpoint_every=1_000)

        # uninterrupted in-RAM reference over the very same values
        reference = api.create(detector)
        for event in api.stream(reference, shifting, chunk_size=256):
            pass
        ref_points = [
            e.to_dict() for e in reference.events() if e.kind == "change_point"
        ]
        assert run.change_points == ref_points  # stored run == in-RAM run

        for from_t in (0, 1_500, 3_333, 5_999):
            audit = store.resegment("s", from_t=from_t)
            assert audit.same_config
            assert audit.identical, f"from_t={from_t}: {audit.summary()}"
            assert audit.new_change_points == ref_points
            if from_t >= 1_000:
                assert audit.checkpoint_used is not None
                assert audit.checkpoint_used <= from_t
                assert audit.replayed_from == audit.checkpoint_used

    def test_resegment_class_detector_mid_t(self, store, rng):
        """ClaSS itself: snapshot/replay through the full k-NN + rng state."""
        values = np.concatenate(
            [
                np.sin(2 * np.pi * np.arange(1_200) / 20),
                np.sign(np.sin(2 * np.pi * np.arange(1_200) / 60)),
            ]
        ) + rng.normal(0, 0.05, 2_400)
        store.ingest("cls", values)
        run = store.segment(
            "cls", "class", CLASS_CONFIG, chunk_size=200, checkpoint_every=700
        )
        reference = api.create("class", CLASS_CONFIG)
        list(api.stream(reference, values, chunk_size=200))
        ref_points = [
            e.to_dict() for e in reference.events() if e.kind == "change_point"
        ]
        assert run.change_points == ref_points
        audit = store.resegment("cls", from_t=1_500)
        assert audit.identical
        # cadence 700 with 200-chunks snapshots at 0, 800, 1600, ...
        assert audit.checkpoint_used == 800
        assert audit.new_change_points == ref_points

    @pytest.mark.parametrize(
        "older",
        [
            lambda config: config.update(cross_val_implementation="fast"),  # a retired field
            lambda config: config.update(knn_mode="streaming"),  # another one
            lambda config: config.pop("relearn_width"),  # before a defaulted field existed
        ],
        ids=["retired-field", "retired-knn-mode", "missing-defaulted-field"],
    )
    def test_run_stored_by_an_older_version_still_replays_from_a_checkpoint(
        self, store, rng, older
    ):
        """Both sides are compared canonically, so an older document is no config change."""
        values = np.concatenate(
            [
                np.sin(2 * np.pi * np.arange(1_200) / 20),
                np.sign(np.sin(2 * np.pi * np.arange(1_200) / 60)),
            ]
        ) + rng.normal(0, 0.05, 2_400)
        store.ingest("cls", values)
        run = store.segment("cls", "class", CLASS_CONFIG, chunk_size=200, checkpoint_every=700)
        # rewrite the run and its snapshots as an older version wrote them
        path = store.path_for("cls") / "run.json"
        stored = json.loads(path.read_text())
        older(stored["config"])
        path.write_text(json.dumps(stored))
        index = store.checkpoint_index("cls")
        for position in index.positions():
            snapshot = index._path_for(position)
            envelope = read_payload_file(snapshot)
            older(envelope["config"])
            older(envelope["state"]["config"])
            knn = envelope["state"]["state"]["knn"]
            if "knn_mode" in envelope["state"]["config"] and knn is not None:
                knn["config"]["mode"] = "streaming"  # the k-NN's state named it too
            write_payload_file(snapshot, envelope)

        audit = store.resegment("cls", from_t=1_500)
        assert audit.same_config
        assert audit.checkpoint_used == audit.replayed_from == 800
        assert audit.identical, audit.summary()
        assert audit.new_change_points == run.change_points
        assert audit.old_config == audit.new_config == run.config

    @pytest.mark.parametrize(
        "policy", [{"nan_policy": "skip"}, {"nan_policy": "hold-last", "max_gap": 10}]
    )
    def test_resegment_anchors_on_the_stored_row(self, store, shifting, policy):
        """Dropped dirty rows make the detector's n_seen lag the stored row."""
        values = shifting.copy()
        values[1_500:1_531] = np.nan
        store.ingest("s", values)
        run = store.segment("s", "page-hinkley", {"data_policy": policy}, checkpoint_every=500)
        envelope = store.checkpoint_index("s").load_at_or_before(4_000)
        assert envelope["n_seen"] < envelope["n_seen_raw"] <= 4_000
        audit = store.resegment("s", from_t=4_000)
        assert audit.identical, audit.summary()
        assert audit.new_change_points == run.change_points
        assert audit.replayed_from == audit.checkpoint_used == envelope["n_seen_raw"]

    def test_snapshot_without_raw_row_anchors_on_n_seen(self):
        assert snapshot_row({"n_seen": 300}) == 300
        assert snapshot_row({"n_seen": 300, "n_seen_raw": 331}) == 331

    def test_resegment_different_chunking_still_identical(self, store, shifting):
        store.ingest("s", shifting)
        store.segment("s", "ddm", chunk_size=256, checkpoint_every=1_000)
        audit = store.resegment("s", from_t=2_500, chunk_size=97)
        assert audit.identical  # chunk invariance holds through replay


class TestResegmentNewConfig:
    def test_different_detector_replays_from_start(self, store, shifting):
        store.ingest("s", shifting)
        store.segment("s", "ddm", checkpoint_every=1_000)
        audit = store.resegment("s", from_t=4_000, detector="page-hinkley")
        assert not audit.same_config
        assert audit.replayed_from == 0
        assert audit.checkpoint_used is None
        assert audit.old_detector == "ddm"
        assert audit.new_detector == "page-hinkley"

    def test_different_config_same_detector(self, store, shifting):
        store.ingest("s", shifting)
        store.segment("s", "ddm", checkpoint_every=1_000)
        audit = store.resegment("s", config={"drift_factor": 1_000.0})
        assert not audit.same_config
        assert audit.replayed_from == 0
        assert audit.old_config["drift_factor"] == 20.0
        assert audit.new_config["drift_factor"] == 1_000.0

    def test_audit_serialises_and_summarises(self, store, shifting):
        store.ingest("s", shifting)
        store.segment("s", "ddm", checkpoint_every=1_000)
        audit = store.resegment("s", detector="page-hinkley")
        payload = json.loads(json.dumps(audit.to_dict()))
        assert payload["stream"] == "s"
        assert isinstance(payload["identical"], bool)
        text = audit.summary()
        assert "resegment 's'" in text
        assert "different config" in text


class TestDiffChangePoints:
    def test_exact_matches_are_unchanged(self):
        old = [{"change_point": 100, "at": 120}]
        new = [{"change_point": 100, "at": 125}]
        parts = diff_change_points(old, new)
        assert len(parts["unchanged"]) == 1
        assert not parts["added"] and not parts["removed"]

    def test_added_and_removed(self):
        parts = diff_change_points(
            [{"change_point": 100}], [{"change_point": 900}], tolerance=0
        )
        assert parts["removed"] == [{"change_point": 100}]
        assert parts["added"] == [{"change_point": 900}]

    def test_moved_within_tolerance(self):
        parts = diff_change_points(
            [{"change_point": 100}, {"change_point": 500}],
            [{"change_point": 103}, {"change_point": 900}],
            tolerance=5,
        )
        assert len(parts["moved"]) == 1
        assert parts["moved"][0]["distance"] == 3
        assert parts["removed"] == [{"change_point": 500}]
        assert parts["added"] == [{"change_point": 900}]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            diff_change_points([], [], tolerance=-1)


class TestStoreCLI:
    def _ingest(self, tmp_path, shifting):
        path = tmp_path / "rec.npy"
        np.save(path, shifting)
        root = str(tmp_path / "streams")
        assert main(["store", "ingest", "s1", str(path), "--root", root]) == 0
        return root

    def test_ingest_list_segment_log_resegment(self, tmp_path, shifting, capsys):
        root = self._ingest(tmp_path, shifting)
        out = capsys.readouterr().out
        assert "ingested 6000 rows" in out

        assert main(["store", "list", "--root", root]) == 0
        assert "(never segmented)" in capsys.readouterr().out

        assert (
            main(
                ["store", "segment", "s1", "--root", root, "--detector", "ddm",
                 "--checkpoint-every", "1000", "--output", "json"]
            )
            == 0
        )
        run = json.loads(capsys.readouterr().out)
        assert run["n_seen"] == 6_000 and run["change_points"]

        assert main(["store", "log", "s1", "--root", root]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert any(r["event"]["kind"] == "change_point" for r in lines)

        assert (
            main(["store", "resegment", "s1", "--root", root, "--from-t", "3000"]) == 0
        )
        out = capsys.readouterr().out
        assert "identical: True" in out

    def test_resegment_json_output_and_new_detector(self, tmp_path, shifting, capsys):
        root = self._ingest(tmp_path, shifting)
        assert main(["store", "segment", "s1", "--root", root, "--detector", "ddm"]) == 0
        capsys.readouterr()
        assert (
            main(
                ["store", "resegment", "s1", "--root", root,
                 "--detector", "page-hinkley", "--output", "json"]
            )
            == 0
        )
        audit = json.loads(capsys.readouterr().out)
        assert audit["same_config"] is False and audit["replayed_from"] == 0

    def test_log_time_range(self, tmp_path, shifting, capsys):
        root = self._ingest(tmp_path, shifting)
        assert main(["store", "segment", "s1", "--root", root, "--detector", "ddm"]) == 0
        capsys.readouterr()
        assert (
            main(["store", "log", "s1", "--root", root,
                  "--from-t", "1", "--to-t", "6000"]) == 0
        )
        for line in capsys.readouterr().out.splitlines():
            assert 1 <= json.loads(line)["at"] < 6_000

    def test_errors_exit_2(self, tmp_path, capsys):
        root = str(tmp_path / "streams")
        assert main(["store", "segment", "ghost", "--root", root]) == 2
        assert "unknown stream" in capsys.readouterr().err
        assert main(["store", "log", "ghost", "--root", root]) == 2
        assert main(["store", "ingest", "bad/name", str(tmp_path / "x.npy"),
                     "--root", root]) == 2

    def test_segment_command_accepts_npy_input(self, tmp_path, shifting, capsys):
        """Satellite: ``repro.cli segment`` memory-maps ``.npy`` inputs."""
        path = tmp_path / "rec.npy"
        np.save(path, shifting)
        assert (
            main(["segment", str(path), "--window-size", "600",
                  "--scoring-interval", "30"]) == 0
        )
        out = capsys.readouterr().out
        assert "loaded 6000 observations" in out
        assert "change points" in out
