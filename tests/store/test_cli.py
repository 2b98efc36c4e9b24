"""The ``repro store`` maintenance subcommands (in-process)."""

import json

from repro.cli import main
from repro.rdf.terms import Literal, URIRef
from repro.store import QuadStore
from repro.store.persistence import WAL_FILENAME

EX = "http://example.org/"

NQUADS = (
    f'<{EX}a> <{EX}p> "hello" .\n'
    f'<{EX}b> <{EX}p> "world" <{EX}g1> .\n'
)


def _seed(directory, path):
    path.write_text(NQUADS, encoding="utf-8")
    assert main(["store", "load", str(directory), str(path)]) == 0


class TestLoadDump:
    def test_load_then_dump_round_trips(self, tmp_path, capsys):
        _seed(tmp_path, tmp_path / "data.nq")
        out = capsys.readouterr().out
        assert "loaded 2 new quad(s)" in out
        assert "generation 1" in out
        assert main(["store", "dump", str(tmp_path)]) == 0
        assert capsys.readouterr().out == NQUADS

    def test_reload_is_a_noop_generation(self, tmp_path, capsys):
        data = tmp_path / "data.nq"
        _seed(tmp_path, data)
        assert main(["store", "load", str(tmp_path), str(data)]) == 0
        out = capsys.readouterr().out
        assert "loaded 0 new quad(s)" in out

    def test_load_of_an_unreadable_file_exits_2(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main([
            "store", "load", str(store_dir), str(tmp_path / "missing.nq"),
        ]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not store_dir.exists()  # nothing was opened


class TestInfo:
    def test_info_reports_generation_and_wal(self, tmp_path, capsys):
        _seed(tmp_path, tmp_path / "data.nq")
        capsys.readouterr()
        assert main(["store", "info", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["generation"] == 1
        assert info["quads"] == 2
        assert info["contexts"] == {"default": 1, f"{EX}g1": 1}
        assert info["wal"]["bytes"] > 0


class TestCompact:
    def test_compact_writes_snapshot_and_resets_wal(
        self, tmp_path, capsys
    ):
        _seed(tmp_path, tmp_path / "data.nq")
        capsys.readouterr()
        assert main(["store", "compact", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["snapshot"] is not None
        assert (tmp_path / WAL_FILENAME).stat().st_size == 0
        # content unchanged
        assert main(["store", "dump", str(tmp_path)]) == 0
        assert capsys.readouterr().out == NQUADS


class TestRecover:
    def test_recover_restores_last_committed_generation(
        self, tmp_path, capsys
    ):
        """Acceptance: after a torn write, ``repro store recover``
        restores the store byte-identically to the last committed
        generation."""
        with QuadStore(tmp_path) as store:
            store.insert((URIRef(EX + "a"), URIRef(EX + "p"),
                          Literal("one")))
            committed = store.to_nquads()
            store.insert((URIRef(EX + "b"), URIRef(EX + "p"),
                          Literal("two")))
        # tear the last record mid-way
        wal = tmp_path / WAL_FILENAME
        data = wal.read_bytes()
        wal.write_bytes(data[: len(data) - 10])

        assert main(["store", "recover", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "generation: 1" in out
        assert "torn" in out
        assert main(["store", "dump", str(tmp_path)]) == 0
        assert capsys.readouterr().out == committed

    def test_recover_clean_store(self, tmp_path, capsys):
        _seed(tmp_path, tmp_path / "data.nq")
        capsys.readouterr()
        assert main(["store", "recover", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "state:             clean" in out
        assert "generation: 1" in out
        assert "quads: 2" in out
