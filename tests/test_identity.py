"""tools/identity.py: the report on synthetic artifacts, and the artifact
script run twice on this checkout in fresh processes."""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import identity  # noqa: E402


def sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture()
def sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    return parent, change


def write_both(sides, name, parent_value, change_value):
    for side, value in zip(sides, (parent_value, change_value)):
        if isinstance(value, np.ndarray):
            np.save(side / name, value)
        elif value is not None:
            (side / name).write_bytes(value)


class TestCompare:
    def test_equal_files_are_same(self, sides):
        write_both(sides, "a.csv", b"x,1\n", b"x,1\n")
        assert identity.compare(*sides) == [("a.csv", sha(b"x,1\n"), sha(b"x,1\n"), "same", "")]

    def test_other_bytes_move_without_a_detail(self, sides):
        write_both(sides, "a.csv", b"x,1\n", b"x,2\n")
        assert identity.compare(*sides) == [("a.csv", sha(b"x,1\n"), sha(b"x,2\n"), "moved", "")]

    def test_moved_float_array_gives_its_move_relative_to_the_parent_magnitude(self, sides):
        parent = np.array([[4.0, -8.0], [1.0, 2.0]], dtype=np.float32)
        change = parent.copy()
        change[1, 0] += np.float32(0.5)
        change[0, 1] -= np.float32(0.25)
        write_both(sides, "g.npy", parent, change)
        (row,) = identity.compare(*sides)
        assert row[3:] == ("moved", "rel 0.0625")
        assert row[1] == sha((sides[0] / "g.npy").read_bytes())

    def test_equal_arrays_are_same(self, sides):
        grads = np.linspace(-1.0, 1.0, 7)
        write_both(sides, "g.npy", grads, grads.copy())
        assert identity.compare(*sides)[0][3:] == ("same", "")

    @pytest.mark.parametrize("change", [
        np.zeros(3, np.float32), np.zeros(2, np.float64), np.zeros(2, np.int64),
    ], ids=["shape", "dtype", "kind"])
    def test_array_of_another_shape_or_dtype_moves_without_a_ratio(self, sides, change):
        write_both(sides, "g.npy", np.ones(2, np.float32), change)
        assert identity.compare(*sides)[0][3:] == ("moved", "not one float shape")

    def test_move_of_an_all_zero_parent_is_infinite(self):
        assert identity.relative_move(np.zeros(2), np.array([0.0, 1e-30])) == float("inf")

    def test_an_artifact_in_one_tree_only_moves(self, sides):
        write_both(sides, "a.csv", b"1", None)
        write_both(sides, "b.csv", None, b"2")
        rows = identity.compare(*sides)
        assert rows == [("a.csv", sha(b"1"), None, "moved", "only in parent"),
                        ("b.csv", None, sha(b"2"), "moved", "only in change")]
        assert identity.report(rows) == [f"a.csv {sha(b'1')} - moved only in parent",
                                         f"b.csv - {sha(b'2')} moved only in change"]


class TestMain:
    """main's exit status and summary, with the export and the artifact runs
    replaced by writes of synthetic artifacts."""

    @pytest.mark.parametrize("change,status", [(b"1", 0), (b"2", 1)])
    def test_exits_1_only_if_something_moved(self, monkeypatch, capsys, change, status):
        def run_artifacts(tree, out, paper):
            assert paper is False
            Path(out, "a.csv").write_bytes(b"1" if tree != identity.ROOT else change)
            Path(out, "b.csv").write_bytes(b"same")

        monkeypatch.setattr(identity, "export", lambda rev, dest: None)
        monkeypatch.setattr(identity, "run_artifacts", run_artifacts)
        assert identity.main(["--parent", "HEAD"]) == status
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[-1] == f"{1 + (1 - status)} same, {status} moved, against HEAD"


def test_two_fresh_runs_on_this_checkout_write_the_same_artifacts(tmp_path):
    """The toy artifacts are deterministic across processes, so a moved
    artifact means the code moved it."""
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        out.mkdir()
        identity.run_artifacts(str(identity.ROOT), str(out), paper=False)
    rows = identity.compare(*outs)
    # Seven arrays per train step (three shapes, two dtypes), ten CLI files.
    assert len(rows) == 3 * 2 * 7 + 10
    assert {status for *_, status, _ in rows} == {"same"}
    # The runs the artifact set names took place: an early stop that kept
    # an earlier epoch, and a disaggregation ending in a partial batch.
    assert (outs[0] / "early_stop_line.txt").read_text().startswith(
        "stopped=early_stop best_epoch=2 ")
    # 985 windows: three batches of 256 and one of 217.
    attention = (outs[0] / "disaggregate_attention.csv").read_text().splitlines()
    assert len(attention) == 1 + 985
