"""Interleaved A/B benchmark of this tree against a git ref.

    python3 tools/perfbench_ab.py --ref HEAD --workload inmem_loop \\
        --pairs 5 --seconds 20
    make perfbench-ab REF=HEAD WORKLOAD=inmem_loop PAIRS=5 SECONDS=20

``--ref`` is checked out (detached) into a temporary local ``git
worktree``; nothing is fetched. ``perfbench/run.py --trace 0`` then runs
``--pairs`` times on each tree, one run at a time, alternating which
side goes first so a slow spell of the host does not always land on
the same side. The script prints each pair's ``ops_per_s`` and
``cpu_s``, both sides' medians (with the ref's quartiles) and how many
pairs this tree won on ``ops_per_s``, then removes the worktree.

It exits 1 if any run reports ``"correct": false`` or if the two sides'
``events_per_op`` differ (a speed-up must not change the simulated
work), and 2 if a run fails to produce a result line.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("ref", "tree")


def pair_order(pairs):
    """Which side runs first in each pair: the ref in even pairs, this
    tree in odd ones."""
    return [SIDES if index % 2 == 0 else SIDES[::-1]
            for index in range(pairs)]


def quartiles(values):
    """(lower, upper) quartile of ``values`` (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0]
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return lower, upper


def summarise(results):
    """Per-pair rows, medians, wins and problems of ``results``.

    ``results`` is one ``{"ref": result, "tree": result}`` dict per
    pair, each result the JSON line ``perfbench/run.py`` prints. A pair
    is a win when this tree's ``ops_per_s`` is strictly higher.
    """
    rows, problems = [], []
    for index, pair in enumerate(results):
        row = {}
        for side in SIDES:
            result = pair[side]
            metrics = result["metrics"]
            row[side] = {key: metrics[key]["value"]
                         for key in ("ops_per_s", "cpu_s", "events_per_op")}
            if result["correct"] is not True:
                problems.append("pair %d: %s reports correct: false "
                                "(%d failed)" % (index + 1, side,
                                                 result["failed"]))
        if row["ref"]["events_per_op"] != row["tree"]["events_per_op"]:
            problems.append("pair %d: events_per_op differs: ref %r, tree %r"
                            % (index + 1, row["ref"]["events_per_op"],
                               row["tree"]["events_per_op"]))
        row["win"] = row["tree"]["ops_per_s"] > row["ref"]["ops_per_s"]
        rows.append(row)
    medians = {side: {key: statistics.median(row[side][key] for row in rows)
                      for key in ("ops_per_s", "cpu_s")}
               for side in SIDES}
    return {
        "rows": rows,
        "medians": medians,
        "ref_quartiles": quartiles([row["ref"]["ops_per_s"]
                                    for row in rows]),
        "wins": sum(row["win"] for row in rows),
        "gain": medians["tree"]["ops_per_s"] / medians["ref"]["ops_per_s"]
        - 1.0,
        "problems": problems,
    }


def render(summary, order):
    """The report as text lines."""
    lines = ["%-5s %-6s %12s %12s %10s %10s  %s" % (
        "pair", "first", "ref ops/s", "tree ops/s", "ref cpu_s",
        "tree cpu_s", "winner")]
    for index, (row, sides) in enumerate(zip(summary["rows"], order)):
        lines.append("%-5d %-6s %12.1f %12.1f %10.3f %10.3f  %s" % (
            index + 1, sides[0], row["ref"]["ops_per_s"],
            row["tree"]["ops_per_s"], row["ref"]["cpu_s"],
            row["tree"]["cpu_s"], "tree" if row["win"] else "ref"))
    medians = summary["medians"]
    lines.append("%-12s %12.1f %12.1f %10.3f %10.3f" % (
        "median", medians["ref"]["ops_per_s"], medians["tree"]["ops_per_s"],
        medians["ref"]["cpu_s"], medians["tree"]["cpu_s"]))
    low, high = summary["ref_quartiles"]
    lines.append("ref ops_per_s quartiles %.1f-%.1f (spread %.1f)"
                 % (low, high, high - low))
    cpu = medians["tree"]["cpu_s"] / medians["ref"]["cpu_s"] - 1.0
    lines.append("tree won %d of %d pairs; median ops_per_s %+.1f%%, "
                 "cpu_s %+.1f%%" % (summary["wins"], len(summary["rows"]),
                                    100 * summary["gain"], 100 * cpu))
    lines.extend("PROBLEM: %s" % problem for problem in summary["problems"])
    return lines


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


@contextlib.contextmanager
def worktree(repo, ref):
    """A detached checkout of ``ref`` in a temporary worktree of
    ``repo``, removed on exit."""
    commit = _git("rev-parse", "--verify", "%s^{commit}" % ref, cwd=repo)
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as scratch:
        path = os.path.join(scratch, "ref")
        _git("worktree", "add", "--detach", "--quiet", path, commit,
             cwd=repo)
        try:
            yield path
        finally:
            _git("worktree", "remove", "--force", path, cwd=repo)


def run_side(tree, workload, seconds):
    """One untraced ``perfbench/run.py`` run in ``tree``; its result."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench/run.py failed in %s (exit %d)"
                           % (tree, proc.returncode))
    return json.loads(lines[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", required=True,
                        help="git ref to compare this tree against")
    parser.add_argument("--workload", required=True,
                        help="one perfbench workload (not 'all')")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        parser.error("compare one workload at a time")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    order = pair_order(args.pairs)
    results = []
    with worktree(ROOT, args.ref) as ref_tree:
        if not os.path.isfile(os.path.join(ref_tree, "perfbench", "run.py")):
            print("%s has no perfbench/run.py" % args.ref, file=sys.stderr)
            return 2
        trees = {"ref": ref_tree, "tree": ROOT}
        for index, sides in enumerate(order):
            pair = {}
            for side in sides:
                try:
                    pair[side] = run_side(trees[side], args.workload,
                                          args.seconds)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
            results.append(pair)
            print("pair %d/%d done: ref %.1f, tree %.1f ops/s" % (
                index + 1, args.pairs,
                pair["ref"]["metrics"]["ops_per_s"]["value"],
                pair["tree"]["metrics"]["ops_per_s"]["value"]), flush=True)
    summary = summarise(results)
    print("%s: %s (ref) vs this tree, %d pair(s) of %gs"
          % (args.workload, args.ref, args.pairs, args.seconds))
    print("\n".join(render(summary, order)))
    return 1 if summary["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
