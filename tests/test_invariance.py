"""One invariance matrix for the campaign digest contract.

The exp3 / seed 11 / 25-trial campaign digest is the reproduction's
contract: every execution knob is an optimisation or an observation
aid, so none of them may move a single trial record.  This file is the
only home of the pin; every cell below must reproduce it:

* **in-process** -- the full product of taint mode {bit, label} x
  superblocks {on, off} x workers {1, 2} x restore {rollback, rebuild
  per trial} x trigger {fast, injector} x engine {functional, pipeline}.
  Rebuild per trial cannot fan out (each worker rolls its chunk back
  from one local checkpoint), so those cells must raise instead;
* **CLI ``--json``** -- ``--taint-labels`` x ``--no-superblocks`` x
  ``-j {1, 2}``, each payload schema-valid;
* **serve wire** -- taint mode x superblocks through one gateway.

The ladder-gate test checks the one gate that switches a campaign fast
path on or off by configuration: the epoch ladder is built exactly when
fast triggers, the functional engine and bit mode meet on a rolled-back
campaign.  Each cell is computed once per session (``functools.cache``)
and shared by every test that reads it.
"""

from __future__ import annotations

import functools
import io
import itertools
import json

import pytest

from repro.api import validate_result_json
from repro.cli import main as cli_main
from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.fault.workloads import builtin_workload
from repro.serve import BackgroundServer, ServeClient

#: exp3 / seed 11 / 25 trials.  Any change to executed semantics -- a
#: superblock, restore, trigger or taint-plane bug -- moves it.
DIGEST_PIN = "9b0588e410ed0e9184188b6567b5305abf6f4b56023b4c3a48c6e35f79829e4b"

WORKLOAD, SEED, TRIALS = "exp3", 11, 25

AXES = {
    "taint": ("bit", "label"),
    "superblocks": ("fused", "unfused"),
    "workers": (1, 2),
    "restore": ("rollback", "rebuild"),
    "trigger": ("fast", "injector"),
    "engine": ("functional", "pipeline"),
}
CELLS = list(itertools.product(*AXES.values()))
ROLLBACK_CELLS = [cell for cell in CELLS if cell[3] == "rollback"]


def _cell_id(cell) -> str:
    return "-".join(str(axis) for axis in cell)


@functools.cache
def in_process(taint, superblocks, workers, restore, trigger, engine):
    """``(digest, ladder_built)`` of one cell, or the ``ValueError`` the
    campaign raised instead."""
    config = CampaignConfig(
        seed=SEED,
        trials=TRIALS,
        taint_labels=taint == "label",
        superblocks=superblocks == "fused",
        workers=workers,
        reuse_snapshots=restore == "rollback",
        fast_triggers=trigger == "fast",
        engine=engine,
    )
    campaign = FaultCampaign(builtin_workload(WORKLOAD), config)
    try:
        result = campaign.run()
    except ValueError as exc:
        return exc
    return result.digest(), bool(campaign._epoch_list)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_in_process_cell_matches_pin(cell):
    outcome = in_process(*cell)
    _taint, _superblocks, workers, restore, _trigger, _engine = cell
    if restore == "rebuild" and workers > 1:
        assert isinstance(outcome, ValueError)
        assert "reuse_snapshots=True" in str(outcome)
        return
    assert not isinstance(outcome, Exception), outcome
    assert outcome[0] == DIGEST_PIN


@pytest.mark.parametrize("cell", ROLLBACK_CELLS, ids=_cell_id)
def test_epoch_ladder_gate(cell):
    taint, _superblocks, _workers, _restore, trigger, engine = cell
    _digest, ladder_built = in_process(*cell)
    expected = trigger == "fast" and engine == "functional" and taint == "bit"
    assert ladder_built == expected


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("fused", (True, False), ids=("fused", "unfused"))
@pytest.mark.parametrize("labels", (False, True), ids=("bit", "label"))
def test_cli_json_cell_matches_pin(labels, fused, workers, tmp_path):
    path = tmp_path / "campaign.json"
    argv = [
        "campaign", "--builtin", WORKLOAD, "--seed", str(SEED),
        "--trials", str(TRIALS), "-j", str(workers), "--json", str(path),
    ]
    if labels:
        argv.append("--taint-labels")
    if not fused:
        argv.append("--no-superblocks")
    assert cli_main(argv, out=io.StringIO()) == 0
    payload = validate_result_json(json.loads(path.read_text()))
    assert payload["digest"] == DIGEST_PIN
    parallel = payload["stats"].get("parallel")
    if workers == 2:
        assert parallel is not None and parallel["workers"] == 2
    else:
        assert parallel is None


@pytest.fixture(scope="module")
def gateway():
    with BackgroundServer(workers=1) as bg:
        yield bg
    assert bg.exit_code == 0


@pytest.mark.parametrize(
    "superblocks", (True, False), ids=("fused", "unfused")
)
@pytest.mark.parametrize("taint_labels", (False, True), ids=("bit", "label"))
def test_serve_wire_cell_matches_pin(taint_labels, superblocks, gateway):
    request = {
        "kind": "campaign", "builtin": WORKLOAD, "seed": SEED,
        "trials": TRIALS,
        "options": {"taint_labels": taint_labels, "superblocks": superblocks},
    }
    server = gateway.server
    with ServeClient(host=server.host, port=server.port) as client:
        payload = validate_result_json(client.request(request))
    assert payload["kind"] == "campaign"
    assert payload["stats"]["digest"] == DIGEST_PIN
