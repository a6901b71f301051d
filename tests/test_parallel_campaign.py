"""Parallel trial engine: digest invariance, crash retry, pool plumbing.

The contract under test (DESIGN.md section 4e): campaign digests,
outcome counts, and experiment tables are byte-identical for every
worker count at a fixed seed -- the pool buys wall-clock, never changes
a record -- and a dying worker degrades to an in-parent serial retry,
never a hang or a different digest.
"""

import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import ExecOptions, Session, validate_result_json
from repro.cli import main as cli_main
from repro.fault import (
    CampaignConfig,
    FaultCampaign,
    FaultSpec,
    Trigger,
    Workload,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    ParallelExecutionError,
    fan_out,
    plan_chunks,
    resolve_workers,
)
from repro.parallel.engine import POISON_ENV

# Cheap victim with tainted input and a heap pointer: every outcome
# class reachable, golden run small enough for many-trial tests.
MINI_SOURCE = r"""
int main(void) {
    char buf[16];
    int *p;
    int v;
    int i;
    read(0, buf, 8);
    p = malloc(16);
    p[0] = 5;
    v = 0;
    i = 0;
    while (i < 40) {
        v = v + p[0] + buf[i % 8];
        i = i + 1;
    }
    printf("v=%d\n", v);
    return 0;
}
"""

MINI = Workload(name="mini", source=MINI_SOURCE, stdin=b"abcdefgh")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash seam kills fork workers via os._exit",
)


def mini_campaign(trials=12, **config_kwargs):
    return FaultCampaign(
        MINI, CampaignConfig(seed=11, trials=trials, **config_kwargs)
    )


class TestPlanChunks:
    def test_covers_every_index_exactly_once(self):
        for n_items, workers in [(1, 1), (7, 2), (30, 4), (100, 16)]:
            chunks = plan_chunks(n_items, workers)
            indices = [i for start, stop in chunks for i in range(start, stop)]
            assert indices == list(range(n_items))

    def test_contiguous_and_nonempty(self):
        chunks = plan_chunks(30, 4)
        assert all(stop > start for start, stop in chunks)
        assert all(
            chunks[i][1] == chunks[i + 1][0] for i in range(len(chunks) - 1)
        )

    def test_chunk_count_bounds(self):
        # Never more chunks than items, never more than workers * factor.
        assert len(plan_chunks(3, 8)) == 3
        assert len(plan_chunks(1000, 2, chunks_per_worker=4)) == 8

    def test_deterministic(self):
        assert plan_chunks(97, 5) == plan_chunks(97, 5)

    def test_empty_plan(self):
        assert plan_chunks(0, 4) == []

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            plan_chunks(10, 0)


class TestResolveWorkers:
    def test_zero_means_per_core(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_identity_above_zero(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_campaign_config_validates(self):
        with pytest.raises(ValueError):
            CampaignConfig(workers=-2)
        assert CampaignConfig(workers=0).resolved_workers() >= 1


class TestFanOut:
    def test_results_in_task_order(self):
        results, info = fan_out(_double, [5, 1, 9, 3], workers=2)
        assert results == [10, 2, 18, 6]
        assert info.workers == 2

    def test_serial_when_one_worker(self):
        results, info = fan_out(_double, [1, 2, 3], workers=1)
        assert results == [2, 4, 6]
        assert info.worker_crashes == 0

    def test_caps_workers_at_task_count(self):
        _, info = fan_out(_double, [1], workers=8)
        assert info.workers == 1

    def test_deterministic_failure_raises_structured_error(self):
        with pytest.raises(ParallelExecutionError) as excinfo:
            fan_out(_fail_on_seven, [1, 7, 3], workers=2)
        assert excinfo.value.task_index == 1
        assert "retry" in str(excinfo.value)

    def test_pool_broken_while_submitting_retries_the_rest(
        self, monkeypatch
    ):
        # A worker that dies before every task is submitted breaks the
        # pool under the submitting loop: the unsubmitted tasks must take
        # the serial retry too, not escape as BrokenProcessPool.
        original = ProcessPoolExecutor.submit
        calls = []

        def submit(self, fn, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 2:
                raise BrokenProcessPool("worker died mid-submission")
            return original(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        results, info = fan_out(_double, [5, 1, 9, 3], workers=2)
        assert results == [10, 2, 18, 6]
        assert info.worker_crashes == 1
        assert info.retried_tasks == 3

    def test_pool_metrics_recorded(self):
        registry = MetricsRegistry()
        fan_out(_double, [1, 2, 3, 4], workers=2, registry=registry)
        dump = registry.to_dict()
        assert dump["gauges"]["parallel.workers"] == 2
        assert dump["counters"]["parallel.tasks.dispatched"] == 4


#: Runs ``fan_out`` in a fresh process whose first pool start is
#: interrupted after the workers fork and before the manager thread that
#: shutdown joins has started; prints the outcome and, after up to 5 s,
#: the number of live worker processes.
_INTERRUPT_AT_POOL_START = r"""
import multiprocessing, os, signal, time
from concurrent.futures import process
from repro.parallel.engine import fan_out

start = process._ExecutorManagerThread.start

def interrupted_start(self):
    os.kill(os.getpid(), signal.SIGINT)
    start(self)

process._ExecutorManagerThread.start = interrupted_start
try:
    fan_out(abs, [1, -2, 3, -4], workers=2)
    outcome = "finished"
except KeyboardInterrupt:
    outcome = "KeyboardInterrupt"
except BaseException as exc:
    outcome = f"{type(exc).__name__}: {exc}"
deadline = time.monotonic() + 5
while multiprocessing.active_children() and time.monotonic() < deadline:
    time.sleep(0.05)
print(outcome)
print(len(multiprocessing.active_children()))
"""


#: Runs ``fan_out`` in a fresh process whose second submit, with the
#: pool started and a task running, finds an interrupt pending and then
#: raises; prints the outcome and the number of workers still alive when
#: the interrupt reached the caller.
_INTERRUPT_WITH_FAILED_SUBMIT = r"""
import multiprocessing, os, signal, time
from concurrent.futures import ProcessPoolExecutor
from repro.parallel.engine import fan_out

submit = ProcessPoolExecutor.submit
calls = []

def failing_submit(self, fn, *args, **kwargs):
    calls.append(fn)
    if len(calls) == 2:
        os.kill(os.getpid(), signal.SIGINT)
        raise RuntimeError("submit failed")
    return submit(self, fn, *args, **kwargs)

ProcessPoolExecutor.submit = failing_submit
live = None
try:
    fan_out(time.sleep, [0.5, 0.5, 0.5], workers=2)
    outcome = "finished"
except KeyboardInterrupt:
    outcome = "KeyboardInterrupt"
    live = len(multiprocessing.active_children())
except BaseException as exc:
    outcome = f"{type(exc).__name__}: {exc}"
print(outcome)
print(live)
"""


def _run_script(script: str) -> list:
    """Stdout lines of ``script`` run in a fresh interpreter."""
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH="src"), cwd=REPO_ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        # Orphaned workers keep the interpreter from exiting.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("interrupted fan_out never exited")
    return out.split("\n")[:2] + [err]


class TestInterruptAtPoolStart:
    @fork_only
    def test_interrupt_while_pool_starts_raises_and_reaps_workers(self):
        *lines, err = _run_script(_INTERRUPT_AT_POOL_START)
        assert lines == ["KeyboardInterrupt", "0"], err

    @fork_only
    def test_interrupt_pending_when_submit_raises_reaps_workers_first(self):
        *lines, err = _run_script(_INTERRUPT_WITH_FAILED_SUBMIT)
        assert lines == ["KeyboardInterrupt", "0"], err


def _double(x):
    return 2 * x


def _fail_on_seven(x):
    if x == 7:
        raise RuntimeError("poisoned task")
    return x


class TestDigestInvariance:
    def test_workers_never_change_the_digest(self):
        serial = mini_campaign(workers=1).run()
        assert serial.parallel is None
        for workers in (2, 8):
            parallel = mini_campaign(workers=workers).run()
            assert parallel.digest() == serial.digest()
            assert parallel.counts == serial.counts
            assert parallel.parallel is not None
            assert parallel.parallel["workers"] == workers

    def test_explicit_schedule_parity(self):
        golden = FaultCampaign(MINI, CampaignConfig(trials=0)).run().golden
        mid = golden.instructions // 2
        schedule = [
            (Trigger("insn", mid), FaultSpec("reg", reg, 1 << reg))
            for reg in range(1, 9)
        ]
        serial = FaultCampaign(
            MINI, CampaignConfig(trials=0, workers=1), schedule=schedule
        ).run()
        parallel = FaultCampaign(
            MINI, CampaignConfig(trials=0, workers=2), schedule=schedule
        ).run()
        assert parallel.digest() == serial.digest()

    def test_parallel_requires_snapshot_reuse(self):
        campaign = mini_campaign(workers=2, reuse_snapshots=False)
        with pytest.raises(ValueError, match="reuse_snapshots"):
            campaign.run()

    def test_pool_stats_never_enter_the_digest(self):
        result = mini_campaign(workers=2).run()
        stats = result.to_json()["stats"]
        assert stats["parallel"]["chunks"] >= 1
        assert stats["digest"] == mini_campaign(workers=1).run().digest()


@fork_only
class TestWorkerCrash:
    def test_poisoned_chunk_retried_serially_with_same_digest(
        self, monkeypatch
    ):
        serial = mini_campaign(workers=1).run()
        monkeypatch.setenv(POISON_ENV, "5")
        registry = MetricsRegistry()
        campaign = FaultCampaign(
            MINI,
            CampaignConfig(seed=11, trials=12, workers=2),
            registry=registry,
        )
        result = campaign.run()
        assert result.digest() == serial.digest()
        assert result.counts == serial.counts
        dump = registry.to_dict()
        assert dump["counters"]["parallel.worker_crashes"] >= 1
        assert dump["counters"]["parallel.chunk_retries"] >= 1
        assert result.parallel["worker_crashes"] >= 1

    def test_poison_never_kills_the_parent(self, monkeypatch):
        # Serial runs execute in-parent, where the seam must be inert.
        monkeypatch.setenv(POISON_ENV, "0")
        result = mini_campaign(workers=1).run()
        assert len(result.records) == 12


class TestSessionAndCli:
    def test_facade_threads_workers_and_pool_metrics(self):
        session = Session(options=ExecOptions(metrics=True, workers=2))
        result = session.run_campaign(workload=MINI, seed=11, trials=12)
        payload = validate_result_json(result.to_json())
        assert payload["stats"]["parallel"]["workers"] == 2
        dump = session.metrics.to_dict()
        assert dump["counters"]["parallel.trials.dispatched"] == 12
        assert any(
            name.startswith("parallel.worker.")
            and name.endswith(".busy_seconds")
            for name in dump["timers"]
        )

    def test_cli_parallel_json_matches_serial(self, tmp_path):
        digests = {}
        for workers in (1, 2):
            path = tmp_path / f"campaign-j{workers}.json"
            code = cli_main(
                [
                    "campaign", "--builtin", "exp3", "--seed", "7",
                    "--trials", "20", "-j", str(workers),
                    "--json", str(path),
                ],
                out=io.StringIO(),
            )
            assert code == 0
            payload = validate_result_json(json.loads(path.read_text()))
            digests[workers] = payload["digest"]
            if workers > 1:
                assert payload["stats"]["parallel"]["workers"] == workers
            else:
                assert "parallel" not in payload["stats"]
        assert digests[1] == digests[2]

    def test_cli_report_parallel_byte_identical(self):
        serial, parallel = io.StringIO(), io.StringIO()
        assert cli_main(["report", "table4"], out=serial) == 0
        assert cli_main(["report", "table4", "-j", "2"], out=parallel) == 0
        assert parallel.getvalue() == serial.getvalue()


class TestParallelSchemaValidation:
    def _payload(self, parallel):
        return {
            "kind": "campaign",
            "detected": True,
            "stats": {"parallel": parallel},
            "metrics": {},
        }

    def test_good_shape_passes(self):
        validate_result_json(
            self._payload({"workers": 2, "chunks": 8, "wall_s": 0.5})
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"workers": 0, "chunks": 1, "wall_s": 0.0},
            {"workers": 2, "chunks": 0, "wall_s": 0.0},
            {"workers": 2, "chunks": 1, "wall_s": -1},
            {"workers": True, "chunks": 1, "wall_s": 0.0},
            {"workers": 2, "chunks": 1},
            {"chunks": 1, "wall_s": 0.0},
            "not-a-dict",
        ],
    )
    def test_bad_shapes_rejected(self, bad):
        with pytest.raises(ValueError, match="parallel"):
            validate_result_json(self._payload(bad))


class TestExperimentParity:
    def test_table4_rows_identical(self):
        from repro.evalx import experiments

        assert experiments.run_table4(workers=2) == experiments.run_table4()

    def test_fig2_report_byte_identical(self):
        from repro.evalx import experiments

        assert experiments.report_fig2(workers=2) == experiments.report_fig2()

    def test_experiment_metrics_match_serial(self):
        from repro.evalx import experiments

        serial, parallel = MetricsRegistry(), MetricsRegistry()
        s = experiments.run_synthetic_detections(registry=serial)
        p = experiments.run_synthetic_detections(registry=parallel, workers=2)
        assert p == s
        serial_counters = serial.to_dict()["counters"]
        parallel_counters = {
            name: value
            for name, value in parallel.to_dict()["counters"].items()
            if not name.startswith("parallel.")
        }
        assert parallel_counters == serial_counters


class TestRegistryAbsorb:
    def test_counters_and_timers_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(3)
        b.counter("x").inc(4)
        b.timer("t").add(0.5)
        a.absorb(b.to_dict())
        assert a.counter("x").value == 7
        assert a.timer("t").count == 1
        assert a.timer("t").seconds == pytest.approx(0.5)

    def test_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.absorb(b.to_dict())
        assert a.gauge("g").value == 9.0

    def test_histograms_merge_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        edges = (1, 2, 4)
        for value in (1, 3):
            a.histogram("h", edges).observe(value)
        for value in (2, 8):
            b.histogram("h", edges).observe(value)
        a.absorb(b.to_dict())
        merged = a.histogram("h", edges)
        assert merged.count == 4
        assert merged.min == 1
        assert merged.max == 8
        assert sum(merged.buckets) == 4

    def test_histogram_edge_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", (1, 2)).observe(1)
        b.histogram("h", (1, 2, 4)).observe(1)
        with pytest.raises(ValueError, match="edges"):
            a.absorb(b.to_dict())

    def test_absorb_order_reproduces_serial_counters(self):
        serial = MetricsRegistry()
        serial.counter("n").inc(1)
        serial.counter("n").inc(2)
        merged = MetricsRegistry()
        for amount in (1, 2):
            worker = MetricsRegistry()
            worker.counter("n").inc(amount)
            merged.absorb(worker.to_dict())
        assert merged.counter("n").value == serial.counter("n").value
