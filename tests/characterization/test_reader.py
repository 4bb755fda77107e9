"""Tests for the lock-free read path (``ResultReader``)."""

import json

import numpy as np
import pytest

from repro.characterization.reader import (
    ResultReader,
    artifact_path,
    content_checksum,
    canonical_data,
    mmap_npz_columns,
)
from repro.characterization.stats import summarize
from repro.characterization.store import ResultStore
from repro.errors import (
    ChecksumMismatchError,
    ExperimentError,
    ResultCorruptionError,
)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "results")


@pytest.fixture()
def reader(store):
    # A fresh, independent reader over the same directory (NOT the
    # store's embedded one), so memoization tests see cold caches.
    return ResultReader(store.directory)


def _summary_payload():
    return {
        "fig": {
            "8-row": summarize([0.99, 0.98, 1.0]),
            "32-row": summarize([0.97, 0.99, 0.95]),
        }
    }


class TestLoadParity:
    """Reader loads must be bit-identical to the store's own loads."""

    def test_v2_roundtrip(self, store, reader):
        data = _summary_payload()
        store.save("figv2", data)
        assert reader.load("figv2") == store.load("figv2") == data

    def test_v3_roundtrip(self, store, reader):
        data = _summary_payload()
        store.save("figv3", data, columnar=True)
        assert reader.load("figv3") == store.load("figv3") == data

    def test_metadata_parity(self, store, reader):
        store.save("meta", {"x": 1}, notes="smoke")
        assert reader.metadata("meta") == store.metadata("meta")

    def test_names_and_has(self, store, reader):
        assert reader.names() == []
        assert not reader.has("nope")
        store.save("a", {"x": 1})
        store.save("b", {"x": 2})
        assert reader.names() == ["a", "b"]
        assert reader.has("a")

    def test_names_on_missing_directory(self, tmp_path):
        assert ResultReader(tmp_path / "never-created").names() == []

    def test_load_missing_raises(self, reader):
        with pytest.raises(ExperimentError):
            reader.load("ghost")


class TestReaderIsLockFree:
    """Readers never acquire (or respect) the writer's lock."""

    def test_load_while_writer_holds_lock(self, store, reader):
        store.save("fig", {"x": 1})
        store.acquire_lock()
        try:
            assert reader.load("fig") == {"x": 1}
            assert reader.verify("fig") == "ok"
            assert reader.content_digest("fig")
        finally:
            store.release_lock()

    def test_reader_creates_no_lockfile(self, store, reader):
        store.save("fig", {"x": 1})
        reader.load("fig")
        reader.verify()
        reader.content_digest("fig")
        assert not reader.lock_path.exists()

    def test_lock_holder_is_observational(self, store, reader):
        assert reader.lock_holder() is None
        store.acquire_lock()
        try:
            import os

            assert reader.lock_holder() == os.getpid()
        finally:
            store.release_lock()
        assert reader.lock_holder() is None


class TestDigestMemoization:
    def test_recorded_checksum_needs_no_recompute(self, store, reader):
        store.save("fig", _summary_payload())
        first = reader.content_digest("fig")
        assert reader.digest_recomputes == 0  # recorded at save time
        second = reader.content_digest("fig")
        assert second == first

    def test_legacy_digest_computed_once(self, store, reader, tmp_path):
        path = artifact_path(store.directory, "old")
        store.directory.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"format_version": 1, "data": {"x": 1}}))
        first = reader.content_digest("old")
        assert reader.digest_recomputes == 1
        assert reader.content_digest("old") == first
        assert reader.digest_recomputes == 1  # memoized
        assert first == content_checksum(canonical_data({"x": 1}))

    def test_rewrite_invalidates_memo(self, store, reader):
        store.save("fig", {"x": 1})
        before = reader.content_digest("fig")
        store.save("fig", {"x": 2})
        after = reader.content_digest("fig")
        assert after != before

    def test_verified_load_reuses_digest(self, store, reader):
        store.save("fig", _summary_payload())
        reader.load("fig")  # verify=True populates the memo
        reuses = reader.digest_reuses
        reader.load("fig")
        assert reader.digest_reuses > reuses

    def test_invalidate_forgets(self, store, reader):
        store.save("fig", _summary_payload())
        reader.content_digest("fig")
        reader.invalidate("fig")
        reuses = reader.digest_reuses
        reader.content_digest("fig")
        assert reader.digest_reuses == reuses  # cold again


class TestDigestFormatIndependence:
    def test_v2_and_v3_share_a_digest(self, tmp_path):
        data = _summary_payload()
        ResultStore(tmp_path / "v2").save("fig", data)
        ResultStore(tmp_path / "v3", columnar=True).save("fig", data)
        assert (
            ResultReader(tmp_path / "v2").content_digest("fig")
            == ResultReader(tmp_path / "v3").content_digest("fig")
        )


class TestValidate:
    """The fine damage taxonomy behind verify() and repair."""

    def test_ok_and_missing(self, store, reader):
        store.save("fig", _summary_payload())
        assert reader.validate("fig") == "ok"
        assert reader.validate("ghost") == "missing"

    def test_legacy(self, store, reader):
        store.directory.mkdir(parents=True, exist_ok=True)
        artifact_path(store.directory, "old").write_text(
            json.dumps({"format_version": 1, "data": {"x": 1}})
        )
        assert reader.validate("old") == "legacy"
        assert reader.verify("old") == "legacy"

    def test_torn_json(self, store, reader):
        store.save("fig", {"x": 1})
        path = reader.path_for("fig")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert reader.validate("fig") == "torn-json"
        assert reader.verify("fig") == "corrupt"

    def test_checksum_mismatch(self, store, reader):
        store.save("fig", {"x": 1})
        path = reader.path_for("fig")
        document = json.loads(path.read_text())
        document["data"]["x"] = 2
        path.write_text(json.dumps(document))
        assert reader.validate("fig") == "checksum-mismatch"
        assert reader.verify("fig") == "mismatch"
        with pytest.raises(ChecksumMismatchError):
            reader.load("fig")

    def test_sidecar_missing(self, store, reader):
        store.save("fig", _summary_payload(), columnar=True)
        reader.columns_path_for("fig").unlink()
        assert reader.validate("fig") == "sidecar-missing"
        assert reader.verify("fig") == "corrupt"

    def test_sidecar_corrupt(self, store, reader):
        store.save("fig", _summary_payload(), columnar=True)
        reader.columns_path_for("fig").write_bytes(b"not a zip archive")
        assert reader.validate("fig") == "sidecar-corrupt"
        with pytest.raises(ResultCorruptionError):
            reader.load("fig")

    def test_sidecar_mismatch(self, store, reader):
        store.save("fig", _summary_payload(), columnar=True)
        sidecar = reader.columns_path_for("fig")
        arrays = dict(np.load(sidecar))
        key = sorted(arrays)[0]
        arrays[key] = arrays[key] + 1.0
        np.savez(sidecar.with_suffix(""), **arrays)
        # np.savez appends .npz; our suffix is .columns.npz, so rename.
        produced = sidecar.with_suffix(".npz")
        if produced != sidecar:
            produced.replace(sidecar)
        assert reader.validate("fig") == "sidecar-mismatch"
        assert reader.verify("fig") == "mismatch"

    def test_store_wide_verify(self, store, reader):
        store.save("good", {"x": 1})
        store.directory.joinpath("stale.tmp").write_text("debris")
        report = reader.verify()
        assert report["artifacts"] == {"good": "ok"}
        assert report["orphaned_tmp"] == ["stale.tmp"]
        assert report["unreferenced_sidecars"] == []


class TestMmapSidecar:
    def test_sidecar_is_mappable(self, store, reader):
        data = _summary_payload()
        store.save("fig", data, columnar=True)
        arrays = mmap_npz_columns(reader.columns_path_for("fig"))
        assert arrays is not None  # np.savez is ZIP_STORED: true mmap
        loaded = dict(np.load(reader.columns_path_for("fig")))
        assert set(arrays) == set(loaded)
        for key in loaded:
            np.testing.assert_array_equal(arrays[key], loaded[key])

    def test_mmap_fallback_on_garbage(self, tmp_path):
        path = tmp_path / "bad.columns.npz"
        path.write_bytes(b"PK\x03\x04 but not really a zip")
        assert mmap_npz_columns(path) is None

    def test_member_headers_are_matched_not_evaluated(
        self, store, reader, monkeypatch
    ):
        import ast

        def broken_literal_eval(*args, **kwargs):
            raise SystemError("AST constructor recursion depth mismatch")

        data = _summary_payload()
        store.save("fig", data, columnar=True)
        monkeypatch.setattr(ast, "literal_eval", broken_literal_eval)
        assert reader.load("fig") == data
        assert mmap_npz_columns(reader.columns_path_for("fig"), 2) is not None
        assert mmap_npz_columns(reader.columns_path_for("fig"), 3) is None


class TestStateToken:
    def test_changes_on_save(self, store, reader):
        token = reader.state_token()
        store.save("fig", {"x": 1})
        changed = reader.state_token()
        assert changed != token
        assert reader.state_token() == changed  # stable when idle

    def test_changes_on_rewrite(self, store, reader):
        store.save("fig", {"x": 1})
        token = reader.state_token()
        store.save("fig", {"x": 2})
        assert reader.state_token() != token

    def test_changes_on_sidecar_only_replace(self, store, reader):
        store.save("fig", _summary_payload(), columnar=True)
        token = reader.state_token()
        sidecar = reader.columns_path_for("fig")
        copy = sidecar.with_name("copy.bin")
        copy.write_bytes(sidecar.read_bytes())
        copy.replace(sidecar)  # same bytes, fresh inode
        assert reader.state_token() != token

    def test_changes_when_the_live_sidecar_rots(self, store, reader):
        store.save("fig", _summary_payload(), columnar=True)
        rewrite = {"fig": {"8-row": summarize([0.5, 0.6])}}
        store.save("fig", rewrite, columnar=True)  # parks a generation
        (live,) = [
            name for name in reader.sidecar_names("fig") if ".g" in name
        ]
        token = reader.state_token()
        path = store.directory / live
        raw = bytearray(path.read_bytes())
        raw[-30] ^= 0xFF  # in place: the document is untouched
        path.write_bytes(bytes(raw))
        assert reader.state_token() != token
        assert reader.verify("fig") == "corrupt"

    def test_changes_on_manifest_save(self, store, reader):
        from repro.characterization.store import CampaignManifest

        store.save("fig", {"x": 1})
        token = reader.state_token()
        store.save_manifest(CampaignManifest(planned=["fig"]))
        assert reader.state_token() != token

    def test_changes_on_journal_append(self, store, reader):
        store.save("fig", {"x": 1})
        token = reader.state_token()
        store.journal_append({"event": "commit-intent", "name": "fig"})
        assert reader.state_token() != token

    def test_ignores_lockfile_and_tmp_debris(self, store, reader):
        store.save("fig", {"x": 1})
        token = reader.state_token()
        reader.lock_path.write_text("12345")
        (store.directory / ".fig.json.abc123.tmp").write_text("{")
        (store.directory / "fig.json.tmp").write_text("{")
        assert reader.state_token() == token

    def test_absent_directory_has_a_token(self, tmp_path):
        assert ResultReader(tmp_path / "nowhere").state_token()


class TestStoreDelegation:
    """The write-path facade serves reads through its embedded reader."""

    def test_store_exposes_reader(self, store):
        assert isinstance(store.reader, ResultReader)
        store.save("fig", {"x": 1})
        assert store.reader.load("fig") == {"x": 1}
        assert store.verify("fig") == "ok"
        assert store.reader.validate("fig") == "ok"

    def test_save_invalidates_embedded_memo(self, store):
        store.save("fig", {"x": 1})
        first = store.reader.content_digest("fig")
        store.save("fig", {"x": 2})
        assert store.reader.content_digest("fig") != first
