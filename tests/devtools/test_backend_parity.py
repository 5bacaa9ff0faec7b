"""PAR001 against the *real* kernel backends.

The acceptance check for the parity rule: the shipped pair lints clean,
and perturbing a ``jit_backend.py`` signature in any of the three guarded
dimensions (name, order, default) — or dropping a public kernel — must
produce a PAR001 finding.
"""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import pytest

from repro.devtools import lint_paths

KERNELS = Path(__file__).resolve().parents[2] / "src" / "repro" / "core" / "kernels"


@pytest.fixture
def kernel_pair(tmp_path):
    """The real backend pair copied somewhere safe to perturb."""
    for name in ("numpy_backend.py", "jit_backend.py"):
        shutil.copy(KERNELS / name, tmp_path / name)
    return tmp_path


def lint_jit(pair_dir):
    return lint_paths([pair_dir / "jit_backend.py"], select=["PAR001"])


def perturb(pair_dir, pattern, replacement):
    target = pair_dir / "jit_backend.py"
    source = target.read_text(encoding="utf8")
    perturbed = re.sub(pattern, replacement, source, count=1)
    assert perturbed != source, f"perturbation {pattern!r} did not apply"
    target.write_text(perturbed, encoding="utf8")


def test_shipped_backends_agree(kernel_pair):
    assert lint_jit(kernel_pair) == []


def test_renamed_parameter_is_flagged(kernel_pair):
    perturb(kernel_pair, r"def sync_round_step\(\s*\n?\s*csr", "def sync_round_step(csr_matrix")
    found = lint_jit(kernel_pair)
    assert [d.code for d in found] == ["PAR001"]
    assert "sync_round_step" in found[0].message


def test_changed_default_is_flagged(kernel_pair):
    # The reference declares no default here; growing one in the jit half
    # is exactly the drift (names equal, defaults not) the rule names.
    perturb(
        kernel_pair,
        r"idx_dtype: type\) -> None:",
        "idx_dtype: type = int) -> None:",
    )
    found = lint_jit(kernel_pair)
    assert [d.code for d in found] == ["PAR001"]
    assert "default" in found[0].message


def test_removed_public_kernel_is_flagged(kernel_pair):
    perturb(kernel_pair, r"\ndef async_tick_loop\(", "\ndef _async_tick_loop_hidden(")
    found = lint_jit(kernel_pair)
    assert [d.code for d in found] == ["PAR001"]
    assert "`async_tick_loop`" in found[0].message
