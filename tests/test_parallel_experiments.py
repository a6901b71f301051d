"""Crash-retry coverage for the experiment-row pool.

PR 5's poisoned-worker seam (``REPRO_PARALLEL_POISON_INDEX``) was only
exercised through campaign chunks; these tests drive it through the
artifact-row path -- ``Session.run_experiment`` with
``options=ExecOptions(workers=2)`` and ``repro report -j2`` -- and pin
the invariant that a worker crash degrades to an in-parent retry with
**row-identical** output.
"""

import io
import multiprocessing

import pytest

from repro.api import ExecOptions, Session
from repro.cli import main as cli_main
from repro.obs.metrics import MetricsRegistry
from repro.parallel.engine import POISON_ENV
from repro.parallel.experiments import run_experiment_units

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash seam kills fork workers via os._exit",
)


def _without_timing(payload: dict) -> dict:
    stats = {k: v for k, v in payload["stats"].items()
             if k != "elapsed_seconds"}
    return dict(payload, stats=stats, metrics={})


@fork_only
class TestPoisonedExperimentRows:
    def test_unit_fan_out_retries_the_poisoned_row(self, monkeypatch):
        registry = MetricsRegistry()
        serial = run_experiment_units("fig2", 3, workers=1)
        monkeypatch.setenv(POISON_ENV, "1")
        poisoned = run_experiment_units(
            "fig2", 3, workers=2, registry=registry
        )
        assert poisoned == serial
        counters = registry.to_dict()["counters"]
        assert counters["parallel.experiment.fig2.worker_crashes"] >= 1
        assert counters["parallel.experiment.fig2.chunk_retries"] >= 1

    def test_session_run_experiment_is_row_identical(self, monkeypatch):
        serial = Session().run_experiment(
            "fig2", render=True, options=ExecOptions(workers=1)
        )
        monkeypatch.setenv(POISON_ENV, "1")
        poisoned = Session().run_experiment(
            "fig2", render=True, options=ExecOptions(workers=2)
        )
        assert poisoned.report == serial.report
        assert _without_timing(poisoned.to_json()) == _without_timing(
            serial.to_json()
        )

    def test_cli_report_j2_output_identical(self, monkeypatch):
        serial_out = io.StringIO()
        assert cli_main(["report", "fig2"], out=serial_out) == 0
        monkeypatch.setenv(POISON_ENV, "0")
        poisoned_out = io.StringIO()
        assert cli_main(["report", "fig2", "-j", "2"],
                        out=poisoned_out) == 0
        assert poisoned_out.getvalue() == serial_out.getvalue()

    def test_poison_never_kills_the_parent(self, monkeypatch):
        monkeypatch.setenv(POISON_ENV, "0")
        payloads = run_experiment_units("table4", 2, workers=2)
        assert len(payloads) == 2
