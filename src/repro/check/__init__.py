"""Differential-testing and metamorphic-invariant harness.

The simulator's credibility rests on identities that are easy to state
and easy to silently break: the optimized event loop must equal the
preserved reference loop, the fault path at zero faults must equal the
fault-free path, recording a timeline must change nothing, a worker
pool must change nothing, and so on.  This package checks all of them
mechanically over seeded adversarial inputs:

* :mod:`repro.check.generate` — deterministic case generation biased
  toward the paper's hard cases;
* :mod:`repro.check.oracles` — the equivalence-pair matrix;
* :mod:`repro.check.invariants` — metamorphic cross-run properties;
* :mod:`repro.check.shrink` — greedy minimization of failures;
* :mod:`repro.check.runner` — the ``repro check`` driver.

Quick use::

    from repro.check import run_check
    report = run_check(seed=0, budget=200)
    assert report.ok, report.failures[0].describe()

:func:`mutated_right_token_cost` exists so tests can prove the harness
has teeth: it mis-prices right tokens in the simulator's event loop
but not in the frozen reference loop, which the oracle matrix must
catch.
"""

from contextlib import contextmanager

from .generate import (PROGRAM_EVERY, TRACE_FAMILIES, CheckCase,
                       ProgramCase, TraceCase, build_case, generate_cases)
from .invariants import INVARIANTS, Invariant, run_invariants
from .oracles import ORACLES, Oracle, run_oracles
from .runner import (DEFAULT_BUDGET, CheckFailure, CheckReport,
                     rebuild_failure_case, run_check)
from .shrink import shrink_program, shrink_trace


@contextmanager
def mutated_right_token_cost(extra_us: float):
    """Test-only: mis-price right tokens in the simulator's event loop.

    Inside the block every right token costs ``extra_us`` more in
    :func:`repro.mpc.simulator.simulate_cycle` — in every mode, but not
    in the frozen reference loop — so a working oracle matrix must flag
    every trace with right activations.
    """
    from ..mpc import simulator
    saved = simulator._TEST_MUTATE_RIGHT_TOKEN_US
    simulator._TEST_MUTATE_RIGHT_TOKEN_US = extra_us
    try:
        yield
    finally:
        simulator._TEST_MUTATE_RIGHT_TOKEN_US = saved


__all__ = [
    "PROGRAM_EVERY", "TRACE_FAMILIES", "CheckCase", "ProgramCase",
    "TraceCase", "build_case", "generate_cases",
    "INVARIANTS", "Invariant", "run_invariants",
    "ORACLES", "Oracle", "run_oracles",
    "DEFAULT_BUDGET", "CheckFailure", "CheckReport",
    "rebuild_failure_case", "run_check",
    "shrink_program", "shrink_trace",
    "mutated_right_token_cost",
]
