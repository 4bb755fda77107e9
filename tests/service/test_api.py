"""Tests for the transport-free service routing layer."""

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.characterization.reader import ResultReader
from repro.characterization.stats import bootstrap_mean_ci, summarize
from repro.characterization.store import ResultStore
from repro.service.api import ResultService
from repro.service.cache import HotFigureCache


@pytest.fixture()
def store(tmp_path):
    store = ResultStore(tmp_path / "results")
    store.save(
        "fig3",
        {"rows": {"8": summarize([0.99, 0.98]), "16": summarize([0.9, 0.91])}},
        notes="many-row activation",
    )
    store.save("plain", {"threshold": 0.5})
    return store


@pytest.fixture()
def service(store):
    return ResultService(ResultReader(store.directory))


def _body(response):
    return json.loads(response.body.decode("utf-8"))


class TestIndex:
    def test_lists_endpoints(self, service):
        response = service.handle("GET", "/")
        assert response.status == 200
        body = _body(response)
        assert "/figures/{name}" in body["endpoints"]
        assert body["cache"]["entries"] == 0


class TestFigures:
    def test_listing_with_state_etag(self, service):
        response = service.handle("GET", "/figures")
        assert response.status == 200
        assert response.headers["ETag"].startswith('"state:')
        body = _body(response)
        assert body["count"] == 2
        by_name = {f["name"]: f for f in body["figures"]}
        assert by_name["fig3"]["status"] == "ok"
        assert by_name["fig3"]["format_version"] == 2
        assert by_name["fig3"]["notes"] == "many-row activation"
        assert by_name["fig3"]["etag"].startswith('"sha256:')

    def test_single_figure(self, service):
        response = service.handle("GET", "/figures/fig3")
        assert response.status == 200
        body = _body(response)
        assert body["name"] == "fig3"
        assert response.headers["ETag"] == body["etag"]
        summary = body["data"]["rows"]["8"]
        assert summary["__distribution_summary__"] is True
        assert summary["n"] == 2

    def test_unknown_figure_404(self, service):
        response = service.handle("GET", "/figures/ghost")
        assert response.status == 404
        assert "ghost" in _body(response)["error"]

    def test_invalid_name_404(self, service):
        assert service.handle("GET", "/figures/.hidden").status == 404
        assert service.handle("GET", "/figures/a/b").status == 404

    def test_unknown_endpoint_404(self, service):
        assert service.handle("GET", "/nope").status == 404

    def test_listing_marks_corrupt_entries(self, store, service):
        path = store.directory / "plain.json"
        document = json.loads(path.read_text())
        document["data"]["threshold"] = 0.75
        path.write_text(json.dumps(document))
        body = _body(service.handle("GET", "/figures"))
        by_name = {f["name"]: f for f in body["figures"]}
        assert by_name["plain"]["status"] == "mismatch"
        assert "etag" not in by_name["plain"]
        assert by_name["fig3"]["status"] == "ok"

    def test_corrupt_figure_is_409(self, store, service):
        path = store.directory / "plain.json"
        document = json.loads(path.read_text())
        document["data"]["threshold"] = 0.75
        path.write_text(json.dumps(document))
        response = service.handle("GET", "/figures/plain")
        assert response.status == 409


class TestConditionalRequests:
    def test_if_none_match_304(self, service):
        first = service.handle("GET", "/figures/fig3")
        etag = first.headers["ETag"]
        response = service.handle(
            "GET", "/figures/fig3", {"If-None-Match": etag}
        )
        assert response.status == 304
        assert response.headers["ETag"] == etag
        assert response.body == b""
        assert service.not_modified == 1

    def test_stale_etag_is_full_200(self, service):
        response = service.handle(
            "GET", "/figures/fig3", {"If-None-Match": '"sha256:stale"'}
        )
        assert response.status == 200

    def test_star_and_lists_match(self, service):
        etag = service.handle("GET", "/figures/fig3").headers["ETag"]
        for header in ("*", f'"other", {etag}', f"W/{etag}"):
            response = service.handle(
                "GET", "/figures/fig3", {"if-none-match": header}
            )
            assert response.status == 304, header

    def test_etag_changes_when_content_does(self, store, service):
        old = service.handle("GET", "/figures/plain").headers["ETag"]
        store.save("plain", {"threshold": 0.75})
        new = service.handle("GET", "/figures/plain")
        assert new.status == 200
        assert new.headers["ETag"] != old


class TestMethodHandling:
    def test_post_is_405_with_allow(self, service):
        response = service.handle("POST", "/figures")
        assert response.status == 405
        assert response.headers["Allow"] == "GET, HEAD"

    def test_head_routes_like_get(self, service):
        get = service.handle("GET", "/figures/fig3")
        head = service.handle("HEAD", "/figures/fig3")
        assert head.status == 200
        assert head.headers["ETag"] == get.headers["ETag"]


class TestCi:
    def test_matches_direct_bootstrap(self, service):
        response = service.handle("GET", "/ci/fig3?resamples=500&seed=3")
        assert response.status == 200
        body = _body(response)
        expected = bootstrap_mean_ci(
            [0.985, 0.905], confidence=0.95, resamples=500, seed=3
        )
        assert body["mean"] == pytest.approx(expected.mean)
        assert body["low"] == pytest.approx(expected.low)
        assert body["high"] == pytest.approx(expected.high)
        assert body["groups"] == 2

    def test_etag_varies_with_parameters(self, service):
        one = service.handle("GET", "/ci/fig3?seed=1").headers["ETag"]
        two = service.handle("GET", "/ci/fig3?seed=2").headers["ETag"]
        assert one != two

    def test_bad_parameter_400(self, service):
        response = service.handle("GET", "/ci/fig3?resamples=lots")
        assert response.status == 400
        assert "resamples" in _body(response)["error"]

    def test_summary_free_figure_400(self, service):
        response = service.handle("GET", "/ci/plain")
        assert response.status == 400
        assert "no distribution summaries" in _body(response)["error"]

    def test_unknown_figure_404(self, service):
        assert service.handle("GET", "/ci/ghost").status == 404


class TestFleetSummaryAndAudit:
    def test_fleet_summary_skips_summary_free(self, service):
        body = _body(service.handle("GET", "/fleet/summary"))
        assert set(body["figures"]) == {"fig3"}
        assert body["figures"]["fig3"]["summaries"] == 2
        assert body["manifest"] is None

    def test_audit_status_never_audited(self, service):
        body = _body(service.handle("GET", "/audit/status"))
        assert body["status"] == "never-audited"
        assert body["report"] is None
        assert body["lock_holder"] is None

    def test_audit_status_surfaces_stored_report(self, store, service):
        store.save("audit-report", {"passed": True, "artifacts": 2})
        body = _body(service.handle("GET", "/audit/status"))
        assert body["status"] == "pass"
        assert body["report"]["artifacts"] == 2


class TestCacheIntegration:
    def test_handle_populates_shared_cache(self, store):
        reader = ResultReader(store.directory)
        cache = HotFigureCache(reader, capacity=4)
        service = ResultService(reader, cache=cache)
        service.handle("GET", "/figures/fig3")
        service.handle("GET", "/figures/fig3")
        assert cache.hits >= 1
        assert cache.misses == 1


def _count_verifies(reader):
    """Record the name of every read of an artifact version from now on
    (the one read behind rows, figures, ``verify`` and ``validate``)."""
    verified = []
    original = reader._read

    def counting_read(name, verify=True):
        verified.append(name)
        return original(name, verify)

    reader._read = counting_read
    return verified


def _digest_of(directory, name):
    """The content digest a fresh reader reports for ``name`` now."""
    return ResultReader(directory).content_digest(name)


class TestOneVersionPerResponse:
    """Data, metadata and ETag of a figure come from one document read."""

    def test_commit_between_reads_cannot_pair_versions(self, store):
        store.save("fig", {"rate": 0.5}, notes="first")
        first_digest = _digest_of(store.directory, "fig")
        reader = ResultReader(store.directory)
        original = reader.read_document
        committed = []

        def read_then_commit(name, path=None):
            document = original(name, path)
            if name == "fig" and not committed:
                # A writer lands right after the first read of `fig`.
                store.save("fig", {"rate": 0.25}, notes="second")
                committed.append(_digest_of(store.directory, "fig"))
            return document

        reader.read_document = read_then_commit
        response = ResultService(reader).handle("GET", "/figures/fig")
        assert committed and committed[0] != first_digest
        assert response.status == 200
        body = _body(response)
        version = {
            0.5: ("first", first_digest),
            0.25: ("second", committed[0]),
        }[body["data"]["rate"]]
        assert body["notes"] == version[0]
        assert response.headers["ETag"] == f'"sha256:{version[1]}"'
        assert body["etag"] == response.headers["ETag"]

    def test_threaded_writer_never_tears_a_response(self, store):
        import threading

        versions = [
            ({"g": summarize([0.9, 0.8])}, "high"),
            ({"g": summarize([0.5, 0.4])}, "low"),
        ]
        digests = {}
        for data, notes in versions:
            store.save("fig", data, notes=notes)
            digests[notes] = _digest_of(store.directory, "fig")
        notes_by_mean = {
            data["g"].mean: notes for data, notes in versions
        }
        service = ResultService(ResultReader(store.directory))
        done = threading.Event()

        def writer():
            try:
                for commit in range(60):
                    data, notes = versions[commit % 2]
                    store.save(
                        "fig", data, notes=notes, columnar=commit % 3 == 0
                    )
            finally:
                done.set()

        problems = []

        def reader_loop():
            while not done.is_set():
                response = service.handle("GET", "/figures/fig")
                if response.status != 200:
                    problems.append(
                        f"HTTP {response.status}: {response.body!r}"
                    )
                    continue
                body = _body(response)
                notes = notes_by_mean[body["data"]["g"]["mean"]]
                if body["notes"] != notes:
                    problems.append(f"{body['notes']!r} notes, {notes!r} data")
                if response.headers["ETag"] != f'"sha256:{digests[notes]}"':
                    problems.append(f"another ETag on {notes!r} data")

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader_loop) for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not problems, problems[:5]


class TestSavedWork:
    def test_304_builds_no_body(self, store, monkeypatch):
        from repro.service import api

        etag = ResultService(ResultReader(store.directory)).handle(
            "GET", "/figures/fig3"
        ).headers["ETag"]
        calls = {"encode": 0, "dumps": 0}
        real_encode, real_dumps = api._encode, api._dumps

        def counting_encode(value):
            calls["encode"] += 1
            return real_encode(value)

        def counting_dumps(value):
            calls["dumps"] += 1
            return real_dumps(value)

        monkeypatch.setattr(api, "_encode", counting_encode)
        monkeypatch.setattr(api, "_dumps", counting_dumps)
        service = ResultService(ResultReader(store.directory))
        for _ in range(2):  # cold, then warm
            response = service.handle(
                "GET", "/figures/fig3", {"If-None-Match": etag}
            )
            assert response.status == 304
        assert calls == {"encode": 0, "dumps": 0}
        assert service.handle("GET", "/figures/fig3").status == 200
        assert calls["encode"] >= 1 and calls["dumps"] == 1

    def test_figure_body_is_encoded_once_per_version(self, store, monkeypatch):
        from repro.service import api

        calls = {"dumps": 0}
        real_dumps = api._dumps

        def counting_dumps(value):
            calls["dumps"] += 1
            return real_dumps(value)

        monkeypatch.setattr(api, "_dumps", counting_dumps)
        service = ResultService(ResultReader(store.directory))
        first = service.handle("GET", "/figures/fig3").body
        assert service.handle("GET", "/figures/fig3").body == first
        assert calls["dumps"] == 1

    def test_unchanged_listing_calls_verify_zero_times(self, store):
        reader = ResultReader(store.directory)
        service = ResultService(reader)
        verified = _count_verifies(reader)
        first = service.handle("GET", "/figures")
        assert len(verified) == 2
        verified.clear()
        second = service.handle("GET", "/figures")
        assert verified == []
        assert second.body == first.body
        assert second.headers["ETag"] == first.headers["ETag"]
        store.save("plain", {"threshold": 0.75}, notes="resaved")
        third = service.handle("GET", "/figures")
        assert verified == ["plain"]  # fig3's row is reused as built
        assert third.headers["ETag"] != first.headers["ETag"]
        by_name = {f["name"]: f for f in _body(third)["figures"]}
        assert by_name["plain"]["notes"] == "resaved"

    def test_deleting_an_artifact_drops_its_row(self, store):
        reader = ResultReader(store.directory)
        service = ResultService(reader)
        verified = _count_verifies(reader)
        service.handle("GET", "/figures")
        verified.clear()
        (store.directory / "plain.json").unlink()
        body = _body(service.handle("GET", "/figures"))
        assert [f["name"] for f in body["figures"]] == ["fig3"]
        assert body["count"] == 1
        assert verified == []
        store.save("plain", {"threshold": 0.5})
        body = _body(service.handle("GET", "/figures"))
        assert [f["name"] for f in body["figures"]] == ["fig3", "plain"]
        assert verified == ["plain"]

    def test_a_commit_during_a_row_build_is_rebuilt_next_time(self, store):
        reader = ResultReader(store.directory)
        service = ResultService(reader)
        service.handle("GET", "/figures")
        store.save("plain", {"threshold": 0.6}, notes="first")
        verified = []
        original = reader._read

        def verify_then_commit(name, verify=True):
            version = original(name, verify)
            verified.append(name)
            if verified == ["plain"]:
                # A writer lands while the listing builds plain's row.
                store.save("plain", {"threshold": 0.7}, notes="second")
            return version

        reader._read = verify_then_commit
        mixed = service.handle("GET", "/figures")
        assert mixed.status == 200
        assert verified == ["plain"]
        by_name = {f["name"]: f for f in _body(mixed)["figures"]}
        assert by_name["plain"]["notes"] in ("first", "second")
        settled = service.handle("GET", "/figures")
        assert verified == ["plain", "plain"]
        by_name = {f["name"]: f for f in _body(settled)["figures"]}
        assert by_name["plain"]["notes"] == "second"
        assert by_name["plain"]["etag"] == (
            f'"sha256:{_digest_of(store.directory, "plain")}"'
        )
        cold = ResultService(ResultReader(store.directory))
        assert settled.body == cold.handle("GET", "/figures").body
        assert service.handle("GET", "/figures").body == settled.body
        assert verified == ["plain", "plain"]

    def test_a_row_whose_key_moved_mid_build_is_not_kept(self, store):
        reader = ResultReader(store.directory)
        service = ResultService(reader)
        store.save("plain", {"threshold": 0.6}, notes="first")
        scans = []
        real_scan = reader.scan

        def recording_scan():
            scans.append(real_scan())
            return scans[-1]

        original = reader._read

        def verify_then_commit(name, verify=True):
            version = original(name, verify)
            if name == "plain" and len(scans) == 1:
                store.save("plain", {"threshold": 0.7}, notes="second")
            return version

        reader.scan, reader._read = recording_scan, verify_then_commit
        service.handle("GET", "/figures")  # plain's row mixes two versions
        store.save("plain", {"threshold": 0.8}, notes="third")

        def recycled_scan():
            # A recycled inode on a coarse file clock: the third version
            # stats exactly as the first did.
            scan = real_scan()
            scan.artifacts["plain"] = scans[0].artifacts["plain"]
            return scan

        reader.scan = recycled_scan
        listing = _body(service.handle("GET", "/figures"))["figures"]
        assert {f["name"]: f["notes"] for f in listing}["plain"] == "third"

    def test_listing_sees_damage_to_the_live_sidecar_generation(self, store):
        store.save("fig", {"g": summarize([0.9, 0.8])}, columnar=True)
        store.save("fig", {"g": summarize([0.5, 0.4])}, columnar=True)
        reader = ResultReader(store.directory)
        service = ResultService(reader)

        def status():
            listing = _body(service.handle("GET", "/figures"))["figures"]
            return {f["name"]: f["status"] for f in listing}["fig"]

        assert status() == "ok"
        (live,) = [n for n in reader.sidecar_names("fig") if ".g" in n]
        path = store.directory / live
        raw = bytearray(path.read_bytes())
        raw[-30] ^= 0xFF  # in place: the document is untouched
        path.write_bytes(bytes(raw))
        assert status() != "ok"

    def test_repeated_ci_bootstraps_once_per_version(self, store, monkeypatch):
        from repro.service import api
        from repro.service.cache import CI_MEMO_LIMIT

        calls = {"n": 0}

        def counting_ci(*args, **kwargs):
            calls["n"] += 1
            return bootstrap_mean_ci(*args, **kwargs)

        monkeypatch.setattr(api, "bootstrap_mean_ci", counting_ci)
        service = ResultService(ResultReader(store.directory))
        query = "/ci/fig3?resamples=200&seed=4"
        first = service.handle("GET", query)
        assert service.handle("GET", query).body == first.body
        assert calls["n"] == 1
        store.save(
            "fig3",
            {"rows": {"8": summarize([0.5, 0.6]),
                      "16": summarize([0.7, 0.8])}},
        )
        changed = service.handle("GET", query)
        assert calls["n"] == 2
        assert changed.headers["ETag"] != first.headers["ETag"]
        for seed in range(CI_MEMO_LIMIT + 8):
            assert service.handle(
                "GET", f"/ci/fig3?resamples=50&seed={seed}"
            ).status == 200
        assert len(service.cache.get("fig3")._ci) == CI_MEMO_LIMIT

    def test_ci_answers_survive_a_digest_keeping_rewrite(
        self, store, monkeypatch
    ):
        from repro.service import api

        calls = {"n": 0}

        def counting_ci(*args, **kwargs):
            calls["n"] += 1
            return bootstrap_mean_ci(*args, **kwargs)

        monkeypatch.setattr(api, "bootstrap_mean_ci", counting_ci)
        service = ResultService(ResultReader(store.directory))
        query = "/ci/fig3?resamples=200&seed=4"
        first = service.handle("GET", query)
        data = store.load("fig3")
        # New notes, then a columnar migrate: same content digest.
        for columnar in (False, True):
            store.save("fig3", data, notes="re-noted", columnar=columnar)
            again = service.handle("GET", query)
            assert again.body == first.body
            assert again.headers["ETag"] == first.headers["ETag"]
        assert calls["n"] == 1
        figure = _body(service.handle("GET", "/figures/fig3"))
        assert figure["notes"] == "re-noted"  # the body is not inherited


_FIGURES = ("f0", "f1", "f2", "f3")
_STEPS = st.one_of(
    st.tuples(
        st.just("save"), st.sampled_from(_FIGURES), st.booleans(),
        st.integers(0, 3),
    ),
    st.tuples(st.just("resave"), st.sampled_from(_FIGURES), st.booleans()),
    st.tuples(st.just("delete"), st.sampled_from(_FIGURES)),
    st.tuples(
        st.just("damage-document"), st.sampled_from(_FIGURES),
        st.integers(0, 1 << 16),
    ),
    st.tuples(st.just("damage-sidecar"), st.sampled_from(_FIGURES)),
)


def _damage_in_place(path, position, mask):
    """Flip bits of one byte without replacing the file (same inode)."""
    before = ResultReader(path.parent).scan()
    raw = bytearray(path.read_bytes())
    raw[position % len(raw)] ^= mask
    path.write_bytes(bytes(raw))
    if ResultReader(path.parent).scan() == before:
        # A coarse file clock can keep (mtime, size, inode) across an
        # in-place write inside one tick, which no stat-keyed memo can
        # see; step the mtime as the next tick would.
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))


def _apply(store, saved, step):
    """One store mutation; ``saved`` tracks each figure's last save."""
    kind, name = step[0], step[1]
    directory = store.directory
    if kind == "save":
        columnar, value = step[2], step[3]
        saved[name] = [value, columnar, 0]
    elif name not in saved:
        return
    value, columnar, edition = saved[name]
    data = {"g": summarize([value / 10, value / 10 + 0.05])}
    if kind == "resave":
        # Same data: the digest (and the row's ETag) stays while the
        # notes move, and the encoding may (a columnar rewrite of a
        # columnar artifact parks a new sidecar generation).
        columnar = step[2]
        saved[name] = [value, columnar, edition + 1]
        store.save(name, data, notes=f"e{edition + 1}", columnar=columnar)
    elif kind == "save":
        store.save(name, data, notes="e0", columnar=columnar)
    elif kind == "delete":
        del saved[name]
        for filename in [f"{name}.json"] + store.reader.sidecar_names(name):
            (directory / filename).unlink()
    elif kind == "damage-document":
        _damage_in_place(directory / f"{name}.json", step[2], 0x01)
    else:
        try:
            live = json.loads((directory / f"{name}.json").read_text())
            sidecar = directory / live["columns"]["file"]
        except (ValueError, KeyError, TypeError):
            return  # no readable live sidecar to damage
        if sidecar.is_file():
            _damage_in_place(sidecar, -30, 0xFF)


class TestWarmListingProperty:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_STEPS, min_size=1, max_size=10))
    def test_a_warm_listing_equals_a_cold_one(self, steps):
        with tempfile.TemporaryDirectory() as scratch:
            store = ResultStore(Path(scratch) / "results")
            warm = ResultService(ResultReader(store.directory))
            saved = {}
            for step in steps:
                _apply(store, saved, step)
                cold = ResultService(ResultReader(store.directory))
                expected = cold.handle("GET", "/figures")
                listed = warm.handle("GET", "/figures")
                assert listed.status == expected.status == 200, step
                assert listed.body == expected.body, step
                assert listed.headers["ETag"] == expected.headers["ETag"]

    def test_threaded_listings_settle_to_the_cold_listing(self, store):
        import threading

        service = ResultService(ResultReader(store.directory))
        done = threading.Event()
        problems = []

        def writer():
            try:
                for commit in range(40):
                    store.save(
                        "fig3" if commit % 2 else "plain",
                        {"g": summarize([0.1 * (commit % 5), 0.5])},
                        notes=f"commit {commit}",
                        columnar=commit % 3 == 0,
                    )
            finally:
                done.set()

        def lister():
            while not done.is_set():
                response = service.handle("GET", "/figures")
                if response.status != 200:
                    problems.append(f"HTTP {response.status}")

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=lister) for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not problems, problems[:5]
        cold = ResultService(ResultReader(store.directory))
        assert (
            service.handle("GET", "/figures").body
            == cold.handle("GET", "/figures").body
        )
