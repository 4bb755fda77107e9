"""Storage-fault injection: ENOSPC, torn writes, sidecar loss.

Each fault is target-keyed (named artifact) and fires exactly once per
(kind, name), so the repair/resume proof loads are deterministic with
no rate tuning.
"""

import errno

import pytest

from repro.characterization.store import ResultStore
from repro.chaos import ChaosConfig, ChaoticStore
from repro.chaos.engine import ChaosEngine
from repro.characterization.stats import summarize

PAYLOAD = {"rate": 0.5}


def _chaotic(tmp_path, columnar=False, **faults):
    store = ResultStore(tmp_path / "store", columnar=columnar)
    engine = ChaosEngine(ChaosConfig(seed=5, **faults))
    return store, ChaoticStore(store, engine), engine


class TestEnospc:
    def test_raises_and_leaves_stale_tmp(self, tmp_path):
        store, chaotic, engine = _chaotic(
            tmp_path, store_enospc_names=("figx",)
        )
        with pytest.raises(OSError) as excinfo:
            chaotic.save("figx", PAYLOAD)
        assert excinfo.value.errno == errno.ENOSPC
        assert not store.has("figx")
        assert store.orphaned_tmp_files()  # the debris a full disk leaves
        assert engine.stats.injected["store-enospc"] == 1

    def test_fires_once_per_name(self, tmp_path):
        store, chaotic, _ = _chaotic(tmp_path, store_enospc_names=("figx",))
        with pytest.raises(OSError):
            chaotic.save("figx", PAYLOAD)
        chaotic.save("figx", PAYLOAD)  # second attempt lands
        assert store.verify("figx") == "ok"
        chaotic.save("figy", PAYLOAD)  # unlisted names never fault
        assert store.verify("figy") == "ok"


class TestTornWrite:
    def test_truncates_saved_document(self, tmp_path):
        store, chaotic, engine = _chaotic(
            tmp_path, store_torn_write_names=("figx",)
        )
        chaotic.save("figx", PAYLOAD)  # reports success
        assert store.verify("figx") == "corrupt"
        assert store.reader.validate("figx") == "torn-json"
        assert engine.stats.injected["store-torn-write"] == 1


class TestPartialSidecar:
    def test_columnar_artifact_loses_sidecar(self, tmp_path):
        store, chaotic, _ = _chaotic(
            tmp_path, columnar=True, store_partial_sidecar_names=("figx",)
        )
        chaotic.save("figx", {"cell": summarize([0.5, 1.0])})
        assert store.reader.validate("figx") == "sidecar-missing"
        assert store.verify("figx") == "corrupt"

    def test_plain_artifact_gains_orphan_sidecar(self, tmp_path):
        store, chaotic, _ = _chaotic(
            tmp_path, store_partial_sidecar_names=("figx",)
        )
        chaotic.save("figx", PAYLOAD)
        assert store.verify("figx") == "ok"  # document itself intact
        assert store.unreferenced_sidecars() == ["figx.columns.npz"]


class TestResultCorruption:
    def test_still_flips_one_byte(self, tmp_path):
        store, chaotic, engine = _chaotic(
            tmp_path, result_corruption_names=("figx",)
        )
        chaotic.save("figx", PAYLOAD)
        assert store.verify("figx") in ("corrupt", "mismatch")
        assert engine.stats.injected["result-corruption"] == 1
