"""CLI robustness: signal handling and structured failure envelopes.

Long-running commands (``campaign``, ``report``, ``matrix``) must honor
SIGINT/SIGTERM -- cancel the worker pool, report partial progress on
stderr, exit 130 -- and any command failure under ``--json PATH`` must
leave a schema-valid ``{"kind": "error"}`` envelope at PATH instead of
an unstructured traceback.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import validate_result_json
from repro.cli import main as cli_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spawn(*argv):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True, cwd=REPO_ROOT,
    )


def _handles_sigterm(pid):
    """Whether ``pid`` has a SIGTERM handler installed (Linux ``SigCgt``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("SigCgt:"):
                caught = int(line.split()[1], 16)
                return bool(caught >> (signal.SIGTERM - 1) & 1)
    return False


def _interrupt_inside_command(proc, signum, timeout_s=60.0):
    """Send ``signum`` once the command runs inside ``_run_interruptible``,
    the only code that installs a SIGTERM handler -- not after a fixed
    sleep, which a fast command outruns."""
    if not os.path.exists(f"/proc/{proc.pid}/status"):  # pragma: no cover
        proc.kill()
        proc.communicate()
        pytest.skip("needs /proc/<pid>/status to see the signal handler")
    deadline = time.monotonic() + timeout_s
    while not _handles_sigterm(proc.pid):
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            _out, err = proc.communicate()
            pytest.fail(f"command never reached _run_interruptible: {err}")
        time.sleep(0.005)
    proc.send_signal(signum)
    out, err = proc.communicate(timeout=60)
    return proc.returncode, out, err


def _children(pid):
    """Direct child pids of ``pid`` (Linux ``/proc/.../children``)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(field) for field in handle.read().split()]
    except FileNotFoundError:
        return []


def _alive(pid):
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestSignalHandling:
    def test_sigint_to_parent_alone_stops_running_chunks(self):
        # 200,000 trials over 2 workers: each chunk is 25,000 trials, far
        # longer than the 3 s the exit may take once the parent alone is
        # interrupted (no signal reaches the workers' process group).
        if not os.path.exists(f"/proc/{os.getpid()}/task"):  # pragma: no cover
            pytest.skip("needs /proc/<pid>/task/<pid>/children")
        proc = _spawn(
            "campaign", "--builtin", "exp3", "--trials", "200000", "-j", "2"
        )
        deadline = time.monotonic() + 120.0
        workers = []
        while len(workers) < 2:
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                _out, err = proc.communicate()
                pytest.fail(f"pool never started both workers: {err}")
            time.sleep(0.01)
            workers = _children(proc.pid)
        both_running = time.monotonic()
        while time.monotonic() < both_running + 1.0:
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        signalled = time.monotonic()
        try:
            _out, err = proc.communicate(timeout=3.0)
        except subprocess.TimeoutExpired:
            # Workers hold the output pipes open: kill them first.
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.kill()
            proc.communicate()
            pytest.fail("campaign did not exit within 3 s of SIGINT")
        assert time.monotonic() - signalled < 3.0
        assert proc.returncode == 130, err
        assert "repro campaign: interrupted" in err
        assert [pid for pid in workers if _alive(pid)] == []

    def test_workers_die_with_a_sigkilled_parent(self):
        # A SIGKILLed parent runs no cleanup: only the workers' own
        # parent-death request stops their 25,000-trial chunks.
        if not os.path.exists(f"/proc/{os.getpid()}/task"):  # pragma: no cover
            pytest.skip("needs /proc/<pid>/task/<pid>/children")
        proc = _spawn(
            "campaign", "--builtin", "exp3", "--trials", "200000", "-j", "2"
        )
        deadline = time.monotonic() + 120.0
        workers = []
        while len(workers) < 2:
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                _out, err = proc.communicate()
                pytest.fail(f"pool never started both workers: {err}")
            time.sleep(0.01)
            workers = _children(proc.pid)
        proc.kill()
        killed = time.monotonic()
        try:
            proc.communicate(timeout=5.0)
        except subprocess.TimeoutExpired:
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("workers held the output pipes open after 5 s")
        while [pid for pid in workers if _alive(pid)]:
            if time.monotonic() > killed + 5.0:
                for pid in workers:
                    if _alive(pid):
                        os.kill(pid, signal.SIGKILL)
                pytest.fail("a worker outlived its SIGKILLed parent by 5 s")
            time.sleep(0.05)

    def test_sigint_mid_campaign_exits_130_with_progress_message(self):
        # Far more trials than the pool can finish before the signal.
        proc = _spawn(
            "campaign", "--builtin", "exp3", "--trials", "20000", "-j", "2"
        )
        rc, _out, err = _interrupt_inside_command(proc, signal.SIGINT)
        assert rc == 130
        assert "repro campaign: interrupted" in err
        assert "partial progress" in err

    def test_sigterm_mid_report_exits_130(self):
        proc = _spawn("report", "all")
        rc, _out, err = _interrupt_inside_command(proc, signal.SIGTERM)
        assert rc == 130
        assert "repro report: interrupted" in err

    def test_sigterm_mid_matrix_exits_130(self):
        proc = _spawn("matrix")
        rc, _out, err = _interrupt_inside_command(proc, signal.SIGTERM)
        assert rc == 130
        assert "repro matrix: interrupted" in err


class TestJsonErrorEnvelope:
    def test_failure_writes_schema_valid_envelope(self, tmp_path, capsys):
        json_path = tmp_path / "result.json"
        rc = cli_main(
            ["run", str(tmp_path / "missing.c"), "--json", str(json_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "FileNotFoundError" in err
        assert "Traceback" not in err
        payload = validate_result_json(json.loads(json_path.read_text()))
        assert payload["kind"] == "error"
        assert payload["reason"] == "cli"
        assert payload["error"]["type"] == "FileNotFoundError"
        assert payload["error"]["message"]

    def test_compile_error_is_structured_too(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        json_path = tmp_path / "result.json"
        rc = cli_main(["run", str(bad), "--json", str(json_path)])
        assert rc == 1
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "error"
        assert payload["error"]["type"]

    def test_usage_errors_still_raise_system_exit(self):
        # Argument-shape problems are usage errors, not result payloads.
        with pytest.raises(SystemExit):
            cli_main(["campaign"])  # needs FILE or --builtin

    def test_success_paths_unaffected(self, tmp_path):
        src = tmp_path / "ok.c"
        src.write_text('int main(void) { printf("ok\\n"); return 0; }')
        json_path = tmp_path / "result.json"
        import io

        rc = cli_main(["run", str(src), "--json", str(json_path)],
                      out=io.StringIO())
        assert rc == 0
        payload = validate_result_json(json.loads(json_path.read_text()))
        assert payload["kind"] == "run"
