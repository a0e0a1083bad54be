"""Artifact writes: a write that fails part way leaves no partial or temporary file."""

import pytest

from qgat.files import atomic_write
from qgat.training import MetricsRecord, write_history_csv


@pytest.mark.parametrize("earlier", [None, "epoch,split\n0,train\n"], ids=["new", "overwrite"])
def test_interrupted_write_leaves_earlier_file(tmp_path, earlier):
    path = tmp_path / "metrics.csv"
    if earlier is not None:
        path.write_text(earlier)
    good = MetricsRecord(0, {"train": 0.5}, {"train": 0.75}, 0.01, 0.25)
    broken = MetricsRecord(1, {"train": 0.4}, {"train": 0.8}, 0.01, None)  # no seconds
    with pytest.raises(TypeError):
        write_history_csv([good, broken], path)
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["metrics.csv"])
    if earlier is not None:
        assert path.read_text() == earlier


def test_completed_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with atomic_write(path) as fh:
        fh.write("new")
        assert path.read_text() == "old"
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_interrupt_is_not_swallowed(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []
