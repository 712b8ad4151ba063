"""Per-shard journal files and their merge into the main journal."""

import pytest

from repro.robust import ScanJournal, ScanJournalError
from repro.robust.journal import TileRecord

META = {"scene_size": 100, "window": 50, "stride": 25}


def rec(index, status="ok", detections=()):
    return TileRecord(index=index, origin=(index, 0), status=status,
                      detections=tuple(detections))


class TestExtend:
    def test_bulk_append_roundtrips(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        journal.start(META)
        journal.extend([rec(0), rec(1), rec(2)])
        meta, records = journal.load()
        assert meta == META
        assert [r.index for r in records] == [0, 1, 2]

    def test_empty_extend_is_noop(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        journal.start(META)
        journal.extend([])
        _, records = journal.load()
        assert records == []


class TestLoad:
    def test_corrupt_line_mid_file_raises_scan_journal_error(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        journal.start(META)
        journal.extend([rec(0), rec(1)])
        lines = journal.path.read_text().splitlines(keepends=True)
        lines[1] = '{"kind": "tile", "ind\n'
        journal.path.write_text("".join(lines))
        with pytest.raises(ScanJournalError, match="corrupt line 2"):
            journal.load()


class TestShardPaths:
    def test_shard_path_is_sibling_with_suffix(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        path = journal.shard_path(3)
        assert path.parent == journal.path.parent
        assert path.name == "scan.jsonl.shard003"

    def test_shard_paths_sorted(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        for index in (2, 0, 1):
            shard = ScanJournal(journal.shard_path(index))
            shard.start(META)
        assert [p.name for p in journal.shard_paths()] == [
            "scan.jsonl.shard000", "scan.jsonl.shard001",
            "scan.jsonl.shard002",
        ]


class TestAbsorb:
    def test_merges_and_removes_shards(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        journal.start(META)
        for index, tiles in ((0, [rec(0), rec(1)]), (1, [rec(2), rec(3)])):
            shard = ScanJournal(journal.shard_path(index))
            shard.start(META)
            shard.extend(tiles)
        absorbed = journal.absorb_shards(META)
        assert absorbed == 4
        assert journal.shard_paths() == []
        _, records = journal.load()
        assert sorted(r.index for r in records) == [0, 1, 2, 3]

    def test_skips_records_already_in_main(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        journal.start(META)
        journal.append(rec(0))
        shard = ScanJournal(journal.shard_path(0))
        shard.start(META)
        shard.extend([rec(0), rec(1)])
        assert journal.absorb_shards(META) == 1
        _, records = journal.load()
        assert sorted(r.index for r in records) == [0, 1]

    def test_rejects_shard_with_mismatched_meta(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        journal.start(META)
        shard = ScanJournal(journal.shard_path(0))
        shard.start({**META, "stride": 999})
        with pytest.raises(ScanJournalError):
            journal.absorb_shards(META)

    def test_no_shards_absorbs_nothing(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        journal.start(META)
        assert journal.absorb_shards(META) == 0
