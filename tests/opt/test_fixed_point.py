"""The optimizer's round loop stops at the IR's fixed point."""

from __future__ import annotations

import repro.opt.pipeline as pipeline
from repro.ir.parser import parse_function
from repro.ir.printer import print_function

#: ``move v1, v0`` with ``v0`` holding ``li 0`` and ``v1`` live past a
#: redefinition of ``v0`` (the shape of generator seed 144's ``main``):
#: constant folding turns the move into ``li v1, 0`` and local CSE turns
#: it back, so both passes report a change every round.
FOLD_CSE_CYCLE = """
func f(1) returns {
entry:
  v9 = param 0
  v0 = li 0
  v1 = move v0
  v0 = addu v9, v9
  v2 = addu v1, v0
  ret v2
}
"""

#: A function whose rounds converged by themselves, and its output.
CONVERGING = """
func g(1) returns {
entry:
  v0 = param 0
  v1 = li 6
  v2 = addiu v1, 4
  v3 = move v0
  v4 = addu v3, v2
  v5 = addu v3, v2
  v6 = subu v5, v4
  v7 = addu v6, v0
  beq v7, v7, done
more:
  v8 = li 3
  ret v8
done:
  ret v7
}
"""

CONVERGED = """\
func g(1) returns {
entry:
  v0 = param 0
  v2 = li 10
  v4 = addu v0, v2
  v6 = subu v4, v4
  v7 = addu v6, v0
  beq v7, v7, done
more:
  v8 = li 3
  ret v8
done:
  ret v7
}"""


def _rounds(monkeypatch, func) -> int:
    """Optimize ``func``; returns how many rounds the loop ran."""
    calls = []
    fold = pipeline.fold_constants
    monkeypatch.setattr(
        pipeline, "fold_constants", lambda f: calls.append(f) or fold(f)
    )
    pipeline.optimize_function(func)
    return len(calls)


def test_cancelling_fold_and_cse_end_the_loop(monkeypatch):
    func = parse_function(FOLD_CSE_CYCLE)
    before = print_function(func)
    assert _rounds(monkeypatch, func) <= 3
    assert print_function(func) == before


def test_converging_function_is_unchanged(monkeypatch):
    func = parse_function(CONVERGING)
    assert _rounds(monkeypatch, func) == 2
    assert print_function(func) == CONVERGED
