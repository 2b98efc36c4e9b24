"""The ``repro store`` maintenance subcommands (in-process)."""

import json

import pytest

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
    def test_info_lists_sealed_segments(self, tmp_path, capsys, monkeypatch):
        import repro.store.engine as engine

        with QuadStore(tmp_path) as store:
            store.insert((URIRef(EX + "a"), URIRef(EX + "p"), Literal("1")))

            def broken(directory, generation, lines):
                raise OSError("disk full")

            # a checkpoint that failed after sealing the log
            monkeypatch.setattr(engine, "write_snapshot", broken)
            try:
                store.checkpoint()
            except OSError:
                pass
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["store", "info", str(tmp_path)]) == 0
        sealed = json.loads(capsys.readouterr().out)["wal"]["sealed"]
        assert [s["generation"] for s in sealed] == [1]
        assert sealed[0]["bytes"] == (
            tmp_path / f"{WAL_FILENAME}.000000001"
        ).stat().st_size > 0

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

    def test_generation_gap_is_an_error(self, tmp_path, capsys):
        """A store whose WAL resumes past its only (damaged) snapshot
        is refused: ``recover`` and ``info`` exit 2 and change nothing."""
        with QuadStore(tmp_path) as store:
            for name in ("a", "b"):
                store.insert((URIRef(EX + name), URIRef(EX + "p"),
                              Literal(name)))
            snapshot = store.checkpoint()
            store.insert((URIRef(EX + "c"), URIRef(EX + "p"), Literal("c")))
        snapshot.write_text("<not nquads\n", encoding="utf-8")
        wal = (tmp_path / WAL_FILENAME).read_bytes()
        for command in ("recover", "info"):
            assert main(["store", command, str(tmp_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "generation 3" in captured.err
        assert (tmp_path / WAL_FILENAME).read_bytes() == wal


class TestMissingStore:
    def test_read_commands_refuse_a_missing_store(self, tmp_path, capsys):
        """``info``/``compact``/``recover``/``dump`` open only a store
        that exists: a typo exits 2 and creates nothing."""
        missing = tmp_path / "typo"
        for command in ("info", "compact", "recover", "dump"):
            assert main(["store", command, str(missing)]) == 2, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: no store at ")
            assert not missing.exists()

    def test_an_empty_directory_is_no_store(self, tmp_path, capsys):
        for command in ("info", "compact", "recover", "dump"):
            assert main(["store", command, str(tmp_path)]) == 2, command
            assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_load_still_creates_a_store(self, tmp_path, capsys):
        directory = tmp_path / "fresh"
        _seed(directory, tmp_path / "data.nq")
        capsys.readouterr()
        assert main(["store", "info", str(directory)]) == 0
        assert json.loads(capsys.readouterr().out)["quads"] == 2

    def test_info_takes_no_write_policy_flags(self, tmp_path, capsys):
        _seed(tmp_path, tmp_path / "data.nq")
        for flag in (
            ["--checkpoint-ops", "4"], ["--checkpoint-wal-bytes", "64"],
            ["--group-commit"],
        ):
            with pytest.raises(SystemExit) as refused:
                main(["store", "info", str(tmp_path), *flag])
            assert refused.value.code == 2
        capsys.readouterr()
