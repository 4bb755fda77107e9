"""Every view of an artifact version agrees on its damage.

``validate``, ``verify``, ``load_version``, the ``/figures`` row and
``/figures/{name}`` are all views of one read, so for any stored
artifact -- intact or damaged in any way -- they must land on the same
row of one table.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.characterization.reader import ResultReader
from repro.characterization.repair import repair_store
from repro.characterization.stats import summarize
from repro.characterization.store import ResultStore
from repro.errors import ChecksumMismatchError, ResultCorruptionError
from repro.health.audit import audit_store
from repro.service.api import ResultService

VIEWS = {
    # validate -> (verify, error load_version raises, /figures/{name})
    "ok": ("ok", None, 200),
    "legacy": ("legacy", None, 200),
    "torn-json": ("corrupt", ResultCorruptionError, 409),
    "sidecar-missing": ("corrupt", ResultCorruptionError, 409),
    "sidecar-corrupt": ("corrupt", ResultCorruptionError, 409),
    "checksum-mismatch": ("mismatch", ChecksumMismatchError, 409),
    "sidecar-mismatch": ("mismatch", ChecksumMismatchError, 409),
}


def _row(service, name):
    response = service.handle("GET", "/figures")
    assert response.status == 200
    rows = json.loads(response.body)["figures"]
    return {row["name"]: row for row in rows}[name]


def _non_utf8(path):
    raw = bytearray(path.read_bytes())
    raw[10] = 0xFF
    path.write_bytes(bytes(raw))


class TestNonUtf8Document:
    def test_is_damage_on_every_path(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        store.save("fig", {"rows": {"8": summarize([0.9, 0.8])}})
        store.save("good", {"threshold": 0.5})
        _non_utf8(store.directory / "fig.json")

        reader = ResultReader(store.directory)
        assert reader.validate("fig") == "torn-json"
        assert reader.verify("fig") == "corrupt"
        service = ResultService(ResultReader(store.directory))
        assert _row(service, "fig") == {"name": "fig", "status": "corrupt"}
        assert _row(service, "good")["status"] == "ok"
        assert service.handle("GET", "/figures/fig").status == 409

        audit = audit_store(store, sample=0)
        assert not audit.passed
        assert {(f.name, f.status) for f in audit.findings} >= {
            ("fig", "corrupt"), ("good", "ok"),
        }
        repair = repair_store(store)
        by_name = {f.name: f for f in repair.findings}
        assert by_name["fig"].classification == "torn-json"
        assert by_name["fig"].action == "quarantined"
        assert (store.directory / "quarantine" / "fig.json").exists()
        assert store.verify()["artifacts"] == {"good": "ok"}


def _edit_sidecar(path):
    arrays = dict(np.load(path))
    arrays["mean"] = arrays["mean"] + 1.0
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _damage(directory, kind, position, mask):
    """Apply one damage kind; returns the validate class it must give
    (``None`` when the class depends on which byte moved)."""
    path = directory / "fig.json"
    raw = path.read_bytes()
    parsed = json.loads(raw)
    sidecar = parsed.get("columns", {}).get("file")
    if kind == "none":
        return "ok"
    if kind == "truncate":
        path.write_bytes(raw[: position % len(raw)])
        return "torn-json"
    if kind == "flip":
        flipped = bytearray(raw)
        flipped[position % len(raw)] ^= mask
        path.write_bytes(bytes(flipped))
        return "torn-json" if mask & 0x80 else None
    if kind == "non-utf8":
        _non_utf8(path)
        return "torn-json"
    if kind == "checksum":
        parsed["checksum"]["digest"] = "0" * 64
        path.write_text(json.dumps(parsed))
        return "checksum-mismatch"
    if kind == "legacy":
        if sidecar is not None:
            return "ok"  # a version-1 document has no columnar form
        parsed["format_version"] = 1
        del parsed["checksum"]
        path.write_text(json.dumps(parsed))
        return "legacy"
    if kind == "format":
        parsed["format_version"] = 9
        path.write_text(json.dumps(parsed))
        return "torn-json"
    if sidecar is None:
        return "ok"  # column damage needs a columnar artifact
    if kind == "column-ref":
        # A stub naming a row the sidecar does not hold.
        path.write_text(json.dumps(parsed).replace(
            '"__column_ref__": 0', '"__column_ref__": 8'
        ))
        return "checksum-mismatch"
    if kind == "sidecar-delete":
        (directory / sidecar).unlink()
        return "sidecar-missing"
    if kind == "sidecar-garbage":
        (directory / sidecar).write_bytes(b"not a zip archive")
        return "sidecar-corrupt"
    _edit_sidecar(directory / sidecar)
    return "sidecar-mismatch"


_KINDS = st.sampled_from([
    "none", "truncate", "flip", "non-utf8", "checksum", "legacy",
    "format", "column-ref", "sidecar-delete", "sidecar-garbage",
    "sidecar-edit",
])


class TestViewsAgree:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        layout=st.sampled_from(["plain", "columnar", "parked"]),
        kind=_KINDS,
        position=st.integers(0, 1 << 16),
        mask=st.integers(1, 255),
    )
    def test_one_table(self, layout, kind, position, mask):
        with tempfile.TemporaryDirectory() as scratch:
            store = ResultStore(Path(scratch) / "results")
            data = {"g": {"8": summarize([0.9, 0.8]), "16": summarize([0.5])}}
            if layout == "parked":
                # A live rewrite parks the new arrays in a generation.
                store.save("fig", {"g": summarize([0.1])}, columnar=True)
            store.save("fig", data, columnar=layout != "plain")
            directory = store.directory
            expected = _damage(directory, kind, position, mask)

            reader = ResultReader(directory)
            fine = reader.validate("fig")
            if expected is not None:
                assert fine == expected
            coarse, error, status = VIEWS[fine]
            assert reader.verify("fig") == coarse
            if error is None:
                version = reader.load_version("fig")
                assert version.digest == reader.content_digest("fig")
            else:
                with pytest.raises(error) as raised:
                    reader.load_version("fig")
                assert raised.value.damage == fine
            service = ResultService(ResultReader(directory))
            assert _row(service, "fig")["status"] == coarse
            assert service.handle("GET", "/figures/fig").status == status
