"""Superblock tier and ExecOptions: fusion, SMC invalidation, digests.

Covers the ISSUE 8 contract: the fused dispatch tier is a pure
optimisation (byte-identical results with it on or off, across taint
modes and pool widths), self-modifying-code writes force re-fusion
without changing results, and the consolidated ``ExecOptions`` bundle
validates once and is the only way to pass an execution knob.
"""

from __future__ import annotations

import ast
import pathlib
import warnings

import pytest

import repro
from repro import ExecOptions, Session
from repro.builder import build_machine
from repro.isa.assembler import assemble
from repro.mem.layout import TEXT_BASE
from tests.test_invariance import DIGEST_PIN

#: A straight-line-heavy loop: 50 iterations of pure ALU work ending in
#: a branch, so the fused tier builds blocks once and replays them.
LOOP_PROGRAM = """
.text
_start:
    li $t0, 0
    li $t1, 50
loop:
    addiu $t0, $t0, 3
    xor $t2, $t0, $t1
    addiu $t1, $t1, -1
    bne $t1, $zero, loop
    move $a0, $t0
    li $v0, 1
    syscall
"""

#: Same loop shape, but every iteration stores into the text segment
#: (classic SMC pattern).  Semantics come from the immutable predecode,
#: so the answer must not change -- but each store must drop the fused
#: blocks and force a rebuild.
SMC_PROGRAM = f"""
.text
_start:
    li $t0, {TEXT_BASE}
    li $t1, 4
    li $t2, 0
loop:
    sw $t2, 0($t0)
    addiu $t2, $t2, 5
    addiu $t1, $t1, -1
    bne $t1, $zero, loop
    move $a0, $t2
    li $v0, 1
    syscall
"""


def _run(source: str, superblocks: bool):
    sim, _kernel = build_machine(
        assemble(source), None, superblocks=superblocks
    )
    status = sim.run(max_instructions=100_000)
    return sim, status


class TestFusionTier:
    def test_fused_matches_unfused(self):
        fused, fused_status = _run(LOOP_PROGRAM, superblocks=True)
        plain, plain_status = _run(LOOP_PROGRAM, superblocks=False)
        assert fused_status == plain_status == 150
        assert fused.stats.instructions == plain.stats.instructions
        assert fused.regs.snapshot() == plain.regs.snapshot()

    def test_cache_populates_and_replays(self):
        sim, _ = _run(LOOP_PROGRAM, superblocks=True)
        info = sim.superblocks.info()
        assert info["size"] == info["built"] >= 2
        # 50 loop iterations through a handful of blocks: nearly every
        # dispatch is a replay of an already-fused block.
        assert info["hits"] > info["built"]
        assert info["invalidated"] == 0

    def test_disabled_tier_builds_nothing(self):
        sim, _ = _run(LOOP_PROGRAM, superblocks=False)
        assert sim.superblocks.info() == {
            "size": 0, "built": 0, "invalidated": 0, "hits": 0,
        }


class TestSelfModifyingCode:
    def test_text_write_invalidates_and_refuses(self):
        sim, status = _run(SMC_PROGRAM, superblocks=True)
        info = sim.superblocks.info()
        # One invalidation per store into the text segment.
        assert info["invalidated"] == 4
        # The loop body re-fuses after each flush: strictly more builds
        # than the cache holds at exit.
        assert info["built"] > info["size"] >= 1
        assert status == 20

    def test_smc_results_identical_without_fusion(self):
        fused, fused_status = _run(SMC_PROGRAM, superblocks=True)
        plain, plain_status = _run(SMC_PROGRAM, superblocks=False)
        assert fused_status == plain_status == 20
        assert fused.stats.instructions == plain.stats.instructions
        assert fused.regs.snapshot() == plain.regs.snapshot()


class TestCampaignDigestInvariance:
    """The CI-pinned exp3 digest must be reachable in every mode."""

    def _digest(self, **fields) -> str:
        session = Session(options=ExecOptions(**fields))
        result = session.run_campaign(builtin="exp3", seed=11, trials=25)
        return result.digest()

    def test_pinned_digest_with_superblocks(self):
        assert self._digest(superblocks=True) == DIGEST_PIN

    def test_pinned_digest_without_superblocks(self):
        assert self._digest(superblocks=False) == DIGEST_PIN

    def test_pinned_digest_across_taint_mode_and_workers(self):
        digest = self._digest(
            superblocks=True, taint_labels=True, workers=2
        )
        assert digest == DIGEST_PIN


class TestExecOptionsValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExecOptions(engine="vliw")

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            ExecOptions(defense="prayer")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ExecOptions(policy="hope")

    def test_bounds_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ExecOptions(workers=-1)
        with pytest.raises(ValueError, match="max_instructions"):
            ExecOptions(max_instructions=0)
        with pytest.raises(ValueError, match="superblocks"):
            ExecOptions(superblocks="yes")

    def test_coerce_accepts_dict_and_rejects_unknown_field(self):
        opts = ExecOptions.coerce({"engine": "pipeline", "workers": 2})
        assert opts.engine == "pipeline" and opts.workers == 2
        with pytest.raises(ValueError, match="unknown ExecOptions field"):
            ExecOptions.coerce({"turbo": True})

    def test_merged_revalidates(self):
        base = ExecOptions()
        assert base.merged(superblocks=False).superblocks is False
        with pytest.raises(ValueError):
            base.merged(engine="vliw")


class TestLegacyKwargAliases:
    """The pre-ExecOptions flat kwargs are gone: each one fails loudly
    instead of being silently overwritten by the session's options."""

    def test_mixing_options_and_kwargs_raises(self):
        with pytest.raises(TypeError):
            Session(options=ExecOptions(), use_caches=True)
        with pytest.raises(TypeError, match="options=ExecOptions"):
            Session().run_minic(
                "int main(void) { return 0; }",
                options=ExecOptions(), use_caches=True,
            )

    @pytest.mark.parametrize("method, name, value", [
        *[
            (method, name, value)
            for method in ("run_executable", "run_minic")
            for name, value in (
                ("use_pipeline", True),
                ("use_caches", True),
                ("taint_labels", True),
                ("max_instructions", 10),
                ("defense", "shadow-stack"),
                ("superblocks", False),
            )
        ],
        ("run_campaign", "engine", "pipeline"),
        ("run_campaign", "use_caches", True),
        ("run_campaign", "taint_labels", True),
        ("run_campaign", "superblocks", False),
        ("run_campaign", "workers", 2),
    ])
    def test_plain_kwarg_knob_rejected(self, method, name, value):
        target = {
            "run_executable": assemble(LOOP_PROGRAM),
            "run_minic": "int main(void) { return 0; }",
        }
        call = getattr(Session(), method)
        pattern = rf"\['{name}'\].*options=ExecOptions"
        with pytest.raises(TypeError, match=pattern):
            if method == "run_campaign":
                call(builtin="exp3", seed=11, trials=1, **{name: value})
            else:
                call(target[method], **{name: value})

    def test_options_path_is_warning_free(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = Session(options=ExecOptions(use_caches=True))
            assert session.options.use_caches is True
        assert not [
            w for w in caught
            if issubclass(w.category, DeprecationWarning)
        ]


class TestNoInternalShimImports:
    """No module under ``repro`` may import (or re-create) the removed
    ``repro.core`` compat shims: each name has one import path."""

    SHIMS = {"repro.core.taint", "repro.core.detector", "repro.core.policy"}

    @staticmethod
    def _resolve(module: str, is_package: bool, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        parts = module.split(".")
        if not is_package:
            parts = parts[:-1]
        parts = parts[: len(parts) - (node.level - 1)]
        if node.module:
            parts.append(node.module)
        return ".".join(parts)

    def test_repro_modules_avoid_shims(self):
        pkg_root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(pkg_root.rglob("*.py")):
            rel = path.relative_to(pkg_root.parent)
            is_package = rel.name == "__init__.py"
            module = ".".join(rel.with_suffix("").parts)
            if is_package:
                module = module[: -len(".__init__")]
            if module in self.SHIMS:
                offenders.append((str(rel), module))
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name in self.SHIMS:
                            offenders.append((str(rel), alias.name))
                elif isinstance(node, ast.ImportFrom):
                    base = self._resolve(module, is_package, node)
                    if base in self.SHIMS:
                        offenders.append((str(rel), base))
                    for alias in node.names:
                        dotted = f"{base}.{alias.name}"
                        if dotted in self.SHIMS:
                            offenders.append((str(rel), dotted))
        assert not offenders, f"removed shims are back: {offenders}"
