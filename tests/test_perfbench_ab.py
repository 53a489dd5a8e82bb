"""The A/B harness's pairing, median, win and problem logic, and its
temporary worktree (exercised on a throwaway repository)."""

import importlib.util
import os
import shutil
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "perfbench_ab.py")
_spec = importlib.util.spec_from_file_location("perfbench_ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def result(ops, cpu, events=8.5, correct=True, failed=0):
    """A result line as perfbench/run.py prints it."""
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "cpu_s": {"value": cpu, "unit": "s"},
                        "events_per_op": {"value": events,
                                          "unit": "count"}}}


def pairs(ref_ops, tree_ops, **tree):
    return [{"ref": result(r, 2.0), "tree": result(t, 1.0, **tree)}
            for r, t in zip(ref_ops, tree_ops)]


class TestPairOrder:
    def test_alternates_starting_with_ref(self):
        assert ab.pair_order(4) == [("ref", "tree"), ("tree", "ref"),
                                    ("ref", "tree"), ("tree", "ref")]

    def test_each_side_first_equally_often(self):
        order = ab.pair_order(10)
        assert sum(first == "ref" for first, _ in order) == 5
        assert all(sorted(sides) == ["ref", "tree"] for sides in order)


class TestSummarise:
    def test_medians_wins_and_gain(self):
        summary = ab.summarise(pairs([100, 110, 90, 105, 95],
                                     [120, 100, 130, 125, 121]))
        assert summary["medians"]["ref"]["ops_per_s"] == 100
        assert summary["medians"]["tree"]["ops_per_s"] == 121
        assert summary["medians"]["tree"]["cpu_s"] == 1.0
        assert summary["wins"] == 4
        assert summary["gain"] == pytest.approx(0.21)
        assert summary["ref_quartiles"] == (95, 105)
        assert summary["problems"] == []

    def test_even_pair_count_median_and_tie_is_no_win(self):
        summary = ab.summarise(pairs([100, 200], [100, 300]))
        assert summary["medians"]["ref"]["ops_per_s"] == 150
        assert summary["medians"]["tree"]["ops_per_s"] == 200
        assert [row["win"] for row in summary["rows"]] == [False, True]

    def test_single_pair_quartiles(self):
        assert ab.summarise(pairs([100], [90]))["ref_quartiles"] == (100, 100)

    def test_events_per_op_mismatch_is_a_problem(self):
        summary = ab.summarise(pairs([100, 100], [120, 120], events=8.6))
        assert len(summary["problems"]) == 2
        assert "events_per_op differs" in summary["problems"][0]

    def test_incorrect_side_is_a_problem(self):
        summary = ab.summarise(pairs([100], [120], correct=False, failed=3))
        assert summary["problems"] == [
            "pair 1: tree reports correct: false (3 failed)"]

    def test_render_reports_every_pair_and_the_verdict(self):
        summary = ab.summarise(pairs([100, 110], [120, 100]))
        lines = ab.render(summary, ab.pair_order(2))
        assert len(lines) == 1 + 2 + 3
        assert lines[2].split()[:2] == ["2", "tree"]
        assert lines[-1].startswith("tree won 1 of 2 pairs")


class TestArgs:
    def test_all_workloads_rejected(self):
        with pytest.raises(SystemExit):
            ab.parse_args(["--ref", "HEAD", "--workload", "all"])

    def test_defaults(self):
        args = ab.parse_args(["--ref", "HEAD", "--workload", "inmem_loop"])
        assert (args.pairs, args.seconds) == (5, 20.0)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_worktree_checks_out_ref_and_cleans_up(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True,
                       stdout=subprocess.DEVNULL)

    git("init", "-q")
    (repo / "file.txt").write_text("first\n")
    git("add", "file.txt")
    git("commit", "-q", "-m", "first")
    (repo / "file.txt").write_text("second\n")
    git("commit", "-q", "-am", "second")
    with ab.worktree(str(repo), "HEAD~1") as path:
        with open(os.path.join(path, "file.txt")) as handle:
            assert handle.read() == "first\n"
    assert not os.path.exists(path)
    listed = subprocess.run(["git", "worktree", "list"], cwd=repo,
                            check=True, text=True,
                            stdout=subprocess.PIPE).stdout
    assert len(listed.strip().splitlines()) == 1
    assert (repo / "file.txt").read_text() == "second\n"
