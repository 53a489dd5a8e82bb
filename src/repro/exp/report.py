"""Plain-text rendering of experiment results.

The paper's figures are plots; we regenerate the underlying data and
render it as aligned ASCII tables and timelines. The USD scheduler
trace rendering mirrors the bottom plots of Figures 7/8: one row per
client, filled boxes for transactions, lines for lax time, arrows for
new allocations.
"""

import os
import sys

from repro.sim.units import MS, SEC, fmt_time

#: The repository's committed mission corpus, found from this file so
#: the mission-backed scenarios run from any working directory.
MISSIONS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))), "missions")


def table(headers, rows, title=None):
    """Render an aligned ASCII table.

    ``rows`` is a list of sequences; cells are str()-ed. Returns a
    string (no trailing newline).
    """
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def fmt_row(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    sep = "  ".join("-" * width for width in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(cells[0]))
    lines.append(sep)
    lines.extend(fmt_row(row) for row in cells[1:])
    return "\n".join(lines)


def series(points, label="t", value="v", fmt="%.2f"):
    """Render a (time, value) series, times in seconds."""
    lines = ["%8s  %s" % (label, value)]
    for when, val in points:
        lines.append("%7.1fs  %s" % (when / SEC, fmt % val))
    return "\n".join(lines)


def usd_trace_text(trace, start, end, bucket=None):
    """Render a USD trace window as per-client timelines.

    Each client gets a row of characters, one per ``bucket`` of time
    (default: window/100): ``#`` = serving a transaction, ``-`` = lax
    time, ``^`` = a new allocation arrived in that bucket, ``.`` = not
    scheduled.
    """
    bucket = bucket or max((end - start) // 100, 1)
    nbuckets = (end - start + bucket - 1) // bucket
    clients = trace.clients()
    lines = ["USD trace %s .. %s (one column = %s)"
             % (fmt_time(start), fmt_time(end), fmt_time(bucket))]
    for client in clients:
        row = ["."] * nbuckets
        for event in trace.filter(client=client, start=None, end=None):
            if event.end <= start or event.time >= end:
                continue
            first = max((event.time - start) // bucket, 0)
            last = min((max(event.end - 1, event.time) - start) // bucket,
                       nbuckets - 1)
            if event.kind == "txn":
                mark = "#"
            elif event.kind == "lax":
                mark = "-"
            elif event.kind == "slack":
                mark = "+"
            elif event.kind == "alloc":
                mark = "^"
            else:
                continue
            for i in range(int(first), int(last) + 1):
                if mark == "^" and row[i] != ".":
                    continue  # do not overwrite service marks
                row[i] = mark
        lines.append("%12s |%s|" % (client, "".join(row)))
    lines.append("%12s  (# txn, - lax, ^ alloc, + slack)" % "")
    return "\n".join(lines)


def trace_summary(trace, start, end):
    """Per-client totals over a window: transactions, service, lax."""
    rows = []
    for client in trace.clients():
        ntx = trace.count(kind="txn", client=client, start=start, end=end)
        service = trace.total_duration(kind="txn", client=client,
                                       start=start, end=end)
        lax = trace.total_duration(kind="lax", client=client,
                                   start=start, end=end)
        allocs = trace.count(kind="alloc", client=client, start=start,
                             end=end)
        if ntx == 0 and allocs == 0:
            continue
        mean = service / ntx / MS if ntx else 0.0
        rows.append((client, ntx, "%.2f" % (service / MS),
                     "%.2f" % mean, "%.2f" % (lax / MS), allocs))
    return table(
        ["client", "txns", "service(ms)", "mean(ms)", "lax(ms)", "allocs"],
        rows, title="USD accounting %s .. %s" % (fmt_time(start),
                                                 fmt_time(end)))


def write_json(out_dir, name, payload):
    """Write ``payload`` as ``<out_dir>/<name>.json`` in the canonical
    report serialisation (indented, sorted keys, trailing newline),
    creating ``out_dir``; returns the path."""
    # Imported here: the figure modules import this one, and need not
    # load the mission runner.
    from repro.missions.runner import report_json

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s.json" % name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(payload))
    return path


def load_scenario(name):
    """Load and validate the committed mission ``missions/<name>.toml``
    that a scenario wrapper (``chaos``, ``pressure``, ``crash``,
    ``integrity``) runs."""
    # Imported here, as in write_json.
    from repro.missions import load_mission

    return load_mission(os.path.join(MISSIONS_DIR, "%s.toml" % name))


def pop_out_dir(argv):
    """Remove ``--out DIR`` from the list ``argv``; returns ``DIR``
    (default ``results``), or None when ``--out`` has no directory."""
    if "--out" not in argv:
        return "results"
    index = argv.index("--out")
    if index + 1 == len(argv):
        print("--out requires a directory")
        return None
    out_dir = argv[index + 1]
    del argv[index:index + 2]
    return out_dir


def scenario_main(name, argv, config, smoke_config, run, format_result):
    """The CLI ``[--smoke] [--out DIR]`` shared by the gated scenarios
    (``scale``, ``smp``, ``regimes``): run, print the tables, write
    ``<name>.json`` (default dir ``results``); exit 1 on an unknown
    argument, on ``--out`` without a directory or, outside smoke mode,
    a failed gate."""
    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    if smoke:
        argv.remove("--smoke")
    out_dir = pop_out_dir(argv)
    if out_dir is None:
        return 1
    if argv:
        print("unknown %s argument(s): %s" % (name, " ".join(argv)))
        return 1
    config = smoke_config() if smoke else config()
    payload = run(config)
    print(format_result(payload, config))
    path = write_json(out_dir, name, payload)
    print()
    print("wrote %s" % path)
    return 1 if not payload["passed"] and not config.smoke else 0


def mission_main(name, argv, run, format_result, gate):
    """The CLI ``[--out DIR]`` shared by the mission-backed scenarios
    that keep their full report (``crash``, ``integrity``): run, print
    the verdicts, write the canonical report to ``<name>.json``
    (default dir ``results``); exit 1 on an unknown argument, on
    ``--out`` without a directory or on a failed mission, naming the
    failed ``gate``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    out_dir = pop_out_dir(argv)
    if out_dir is None:
        return 1
    if argv:
        print("usage: python -m repro.exp %s [--out DIR]" % name)
        return 1
    result = run()
    print(format_result(result))
    path = write_json(out_dir, name, result.report)
    print("full report: %s" % path)
    if not result.passed:
        print("%s: %s check FAILED" % (name, gate))
        return 1
    return 0
