"""Output checks that decide whether a benchmark operation failed.

The reference relaxation here is a straight-line rewrite of the direct
alternating sweep in plain numpy. It shares no code with ``ffinit``, so a
changed algorithm shows up as a disagreement. Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

# A BLAS gemm-vs-gemv reordering moves a state by about 1e-14; a changed
# update rule moves it by far more than this.
STATE_TOL = 1e-11
# Relative slack for an energy that must not increase between sweeps.
ENERGY_TOL = 1e-9


class Reference(NamedTuple):
    hidden: tuple
    steps: np.ndarray
    converged: bool


def _rho(x):
    return np.minimum(np.maximum(x, 0.0), 1.0)


def reference_relax(params, visible, cfg) -> Reference:
    """Feedforward init, then direct alternating sweeps until the step is below tol."""
    ws, vs = params.ff_weights, params.fb_weights
    bs, cs = params.ff_offsets, params.fb_offsets
    g_bu, g_td = params.branch_gains
    n = len(ws)
    hidden = []
    below = np.asarray(visible, dtype=float)
    for k in range(n):
        below = _rho(bs[k] + ws[k] @ _rho(below))
        hidden.append(below)
    rho_v = _rho(np.asarray(visible, dtype=float))
    steps = []
    for _ in range(cfg.max_iters):
        before = np.concatenate(hidden)
        for parity in (1, 0):
            rates = [rho_v] + [_rho(h) for h in hidden]
            new = {}
            for k in range(1, n + 1):
                if k % 2 != parity:
                    continue
                d_bu = bs[k - 1] + ws[k - 1] @ rates[k - 1]
                if k < n:
                    d_td = cs[k] + vs[k] @ rates[k + 1]
                    new[k] = _rho((g_bu * d_bu + g_td * d_td) / (g_bu + g_td))
                else:
                    new[k] = _rho(g_bu * d_bu / g_bu)
            for k, h in new.items():
                hidden[k - 1] = h
        steps.append(float(np.linalg.norm(np.concatenate(hidden) - before)))
        if steps[-1] < cfg.tol:
            return Reference(tuple(hidden), np.asarray(steps), True)
    return Reference(tuple(hidden), np.asarray(steps), False)


def check_inference(params, visible, state, trace, ref: Reference,
                    energy_expected: bool) -> list[str]:
    """Compare one ``infer_from_feedforward`` result with the reference sweep."""
    problems = []
    if not np.array_equal(state.visible, visible):
        problems.append("visible vector was not kept clamped")
    if trace.iters_run != len(ref.steps) or trace.converged != ref.converged:
        problems.append(f"{trace.iters_run} sweeps (converged={trace.converged}), reference "
                        f"{len(ref.steps)} (converged={ref.converged})")
    else:
        worst = max(float(np.max(np.abs(h - r))) for h, r in zip(state.hidden, ref.hidden))
        if not worst <= STATE_TOL:
            problems.append(f"final state differs from the reference by {worst:.3g}")
        if not np.allclose(trace.step_magnitudes, ref.steps, rtol=0.0, atol=STATE_TOL):
            problems.append("step magnitudes differ from the reference")
    if energy_expected:
        e = trace.energies
        if e is None or len(e) != trace.iters_run + 1:
            problems.append("energy trace missing or of the wrong length")
        elif not np.all(np.diff(e) <= ENERGY_TOL * (1.0 + np.abs(e[:-1]))):
            problems.append("energy increased during relaxation")
    return problems


def check_round_trip(params, loaded) -> list[str]:
    """``load_params(save_params(p))`` must reproduce ``p`` bit for bit."""
    problems = []
    if (loaded.spec != params.spec or loaded.activation is not params.activation
            or loaded.branch_gains != params.branch_gains):
        problems.append("checkpoint round trip changed sizes, activation or gains")
    for field in ("ff_weights", "fb_weights", "ff_offsets", "fb_offsets"):
        for a, b in zip(getattr(params, field), getattr(loaded, field)):
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                problems.append(f"checkpoint round trip changed {field}")
                break
    return problems


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _finite(value: str) -> bool:
    return math.isfinite(float(value))


def check_experiment(report, out_dir: Path, expected: dict, n_inputs: int,
                     curve_rows: int, tied: dict) -> list[str]:
    """Check ``run_experiment``'s report and CSV files.

    ``expected`` maps a regime to ``{input index: Reference}`` for a sample
    of evaluated inputs; ``tied`` maps a regime to whether it records energies.
    """
    problems = []
    for rr in report.regimes:
        n_iters = int(rr.iters_to_tol.max()) if len(rr.iters_to_tol) else 0
        if len(rr.initial_steps) != n_inputs:
            problems.append(f"{rr.regime}: {len(rr.initial_steps)} inputs evaluated, "
                            f"expected {n_inputs}")
        rows = _rows(out_dir / f"{rr.regime}.csv")
        log_rows = _rows(out_dir / f"{rr.regime}_log10.csv")
        if ([r["iter"] for r in rows] != [str(i) for i in range(n_iters)]
                or len(log_rows) != n_iters):
            problems.append(f"{rr.regime}.csv does not hold one row per iteration")
        if not all(_finite(r["step_mag_mean"]) for r in rows):
            problems.append(f"{rr.regime}.csv has a non-finite step mean")
        energies = [r["energy_mean"] for r in rows]
        if tied[rr.regime] != all(energies) or (
                tied[rr.regime] and not all(_finite(e) for e in energies)):
            problems.append(f"{rr.regime}.csv energy means missing, unexpected or non-finite")
        for i, ref in expected.get(rr.regime, {}).items():
            if (rr.iters_to_tol[i] != len(ref.steps) or bool(rr.converged[i]) != ref.converged
                    or abs(rr.initial_steps[i] - ref.steps[0]) > STATE_TOL):
                problems.append(f"{rr.regime}: input {i} disagrees with the reference sweep")
    summary = _rows(out_dir / "summary.csv")
    if len(summary) != 9 * len(report.regimes) or not all(_finite(r["value"]) for r in summary):
        problems.append("summary.csv has missing or non-finite rows")
    curve = _rows(out_dir / "training_curve.csv")
    if len(curve) != curve_rows or not all(_finite(r["reconstruction_error"]) for r in curve):
        problems.append("training_curve.csv has missing or non-finite rows")
    return problems
