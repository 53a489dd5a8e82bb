"""Tests for the report rendering helpers and experiment scaffolding."""

import importlib
import json
from dataclasses import dataclass

import pytest

from repro.exp import report
from repro.exp.common import PagingConfig, small_config
from repro.sim.trace import Trace
from repro.sim.units import MS, SEC


class TestTable:
    def test_alignment(self):
        text = report.table(["name", "value"],
                            [("a", 1), ("long-name", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)
        assert "long-name" in text

    def test_title(self):
        text = report.table(["x"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "========"


class TestSeries:
    def test_rendering(self):
        text = report.series([(5 * SEC, 1.234), (10 * SEC, 5.678)])
        assert "5.0s" in text and "1.23" in text


class TestUsdTraceText:
    @pytest.fixture
    def trace(self):
        trace = Trace()
        trace.record(0, "txn", "a", duration=100 * MS)
        trace.record(100 * MS, "lax", "a", duration=50 * MS)
        trace.record(150 * MS, "txn", "b", duration=100 * MS)
        trace.record(250 * MS, "alloc", "a")
        return trace

    def test_marks(self, trace):
        text = report.usd_trace_text(trace, 0, 300 * MS, bucket=10 * MS)
        lines = text.splitlines()
        row_a = next(line for line in lines if line.strip().startswith("a"))
        row_b = next(line for line in lines if line.strip().startswith("b"))
        assert "#" in row_a and "-" in row_a and "^" in row_a
        assert "#" in row_b

    def test_window_clipping(self, trace):
        text = report.usd_trace_text(trace, 140 * MS, 260 * MS,
                                     bucket=10 * MS)
        assert "#" in text  # partially-overlapping events still shown

    def test_summary(self, trace):
        text = report.trace_summary(trace, 0, 300 * MS)
        assert "a" in text and "b" in text
        assert "100.00" in text  # service ms


class TestPagingConfig:
    def test_defaults_match_paper(self):
        config = PagingConfig()
        assert config.period_ms == 250
        assert config.slices_ms == (100, 50, 25)
        assert config.laxity_ms == 10
        assert config.stretch_bytes == 4 * 1024 * 1024
        assert config.driver_frames == 2       # 16 KB of physical memory
        assert config.swap_bytes == 16 * 1024 * 1024
        assert not config.slack_eligible

    def test_qos_construction(self):
        config = PagingConfig()
        qos = config.qos(100)
        assert qos.period_ns == 250 * MS
        assert qos.slice_ns == 100 * MS
        assert qos.laxity_ns == 10 * MS
        assert not qos.extra

    def test_app_names_by_share(self):
        config = PagingConfig()
        assert config.app_name(100) == "pager-40%"
        assert config.app_name(25) == "pager-10%"

    def test_small_config_overrides(self):
        config = small_config(measure_sec=3.0)
        assert config.measure_sec == 3.0
        assert config.stretch_bytes < PagingConfig().stretch_bytes
        # Everything else still the paper's.
        assert config.slices_ms == (100, 50, 25)


class TestCsvExport:
    def test_fig7_export(self, tmp_path):
        from repro.exp import export, fig7

        config = small_config(stretch_bytes=32 * 8192,
                              swap_bytes=64 * 8192,
                              settle_sec=1.0, measure_sec=4.0)
        written = export.export_paging_figure(fig7, "fig7", str(tmp_path),
                                              config=config)
        assert len(written) == 2
        import csv

        with open(written[0]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["time_s", "client", "mbit_per_s"]
        assert len(rows) > 3
        with open(written[1]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["start_s", "kind", "client", "duration_ms"]
        kinds = {row[1] for row in rows[1:]}
        assert "txn" in kinds and "alloc" in kinds

    def test_fig9_export(self, tmp_path):
        from repro.exp import export, fig9

        config = fig9.Fig9Config(stretch_bytes=32 * 8192,
                                 swap_bytes=64 * 8192,
                                 settle_sec=1.0, measure_sec=3.0)
        result = fig9.run(config)
        path = export.write_fig9_csv(result, str(tmp_path / "fig9.csv"))
        import csv

        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["run", "client", "mbit_per_s"]
        assert any(row[0] == "solo" for row in rows[1:])
        assert any(row[0] == "contended" for row in rows[1:])


@dataclass(frozen=True)
class _FakeConfig:
    smoke: bool = False


class TestScenarioMain:
    """The shared ``scale``/``smp``/``regimes`` CLI, with a fake run."""

    @staticmethod
    def _main(argv, passed=True):
        def run(config):
            return {"passed": passed, "smoke": config.smoke}

        return report.scenario_main(
            "fake", argv, _FakeConfig, lambda: _FakeConfig(smoke=True),
            run, lambda payload, config: "fake table")

    def test_unknown_argument_exits_1(self, tmp_path, capsys):
        assert self._main(["--bogus", "--out", str(tmp_path)]) == 1
        assert "unknown fake argument(s): --bogus" in capsys.readouterr().out
        assert not (tmp_path / "fake.json").exists()

    def test_out_without_directory_exits_1(self, capsys):
        assert self._main(["--out"]) == 1
        assert capsys.readouterr().out == "--out requires a directory\n"

    def test_out_writes_named_json(self, tmp_path, capsys):
        assert self._main(["--out", str(tmp_path)]) == 0
        path = tmp_path / "fake.json"
        text = path.read_text()
        assert text == json.dumps({"passed": True, "smoke": False},
                                  indent=2, sort_keys=True) + "\n"
        out = capsys.readouterr().out
        assert out.startswith("fake table\n")
        assert "wrote %s" % path in out

    def test_failed_gate_exits_1_only_outside_smoke(self, tmp_path):
        assert self._main(["--out", str(tmp_path)], passed=False) == 1
        assert self._main(["--smoke", "--out", str(tmp_path)],
                          passed=False) == 0
        assert json.loads((tmp_path / "fake.json").read_text())["smoke"]


class _Loaded(Exception):
    """Raised by the stubbed runner to stop a scenario before it runs."""


class TestScenarioMissionFiles:
    """Each mission-backed scenario finds and validates its committed
    file from any working directory; the runner is stubbed out, so no
    simulation starts."""

    @pytest.mark.parametrize("name,mission", [
        ("chaos", "chaos-fig9"),
        ("pressure", "pressure-revocation"),
        ("crash", "crash-recovery"),
        ("integrity", "integrity-accountability"),
    ])
    def test_found_from_any_directory(self, name, mission, tmp_path,
                                      monkeypatch):
        module = importlib.import_module("repro.exp.%s" % name)

        def run_mission(loaded):
            raise _Loaded(loaded)

        monkeypatch.setattr(module, "run_mission", run_mission)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(_Loaded) as caught:
            module.run()
        assert caught.value.args[0]["mission"]["name"] == mission


class TestMissionWrapperMain:
    """The ``crash``/``integrity`` CLI rejects bad arguments before any
    run starts."""

    @pytest.mark.parametrize("name", ["crash", "integrity"])
    def test_out_without_directory_exits_1(self, name, monkeypatch,
                                           capsys):
        module = importlib.import_module("repro.exp.%s" % name)

        def run():
            raise AssertionError("%s ran" % name)

        monkeypatch.setattr(module, "run", run)
        assert module.main(["--out"]) == 1
        assert capsys.readouterr().out == "--out requires a directory\n"

    @pytest.mark.parametrize("name", ["crash", "integrity"])
    def test_out_writes_canonical_report(self, name, tmp_path,
                                         monkeypatch, capsys):
        module = importlib.import_module("repro.exp.%s" % name)
        report_dict = {"passed": True, "invariants": []}

        class Result:
            report = report_dict
            passed = True

        monkeypatch.setattr(module, "run", Result)
        monkeypatch.setattr(module, "format_result", lambda result: "table")
        assert module.main(["--out", str(tmp_path)]) == 0
        path = tmp_path / ("%s.json" % name)
        assert path.read_text() == json.dumps(
            report_dict, indent=2, sort_keys=True) + "\n"
        assert "full report: %s" % path in capsys.readouterr().out
