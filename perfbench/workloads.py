"""The benchmark's workloads: set-up, one timed pass, output checks.

Each workload drives impactdesk through its public entry points and
the config builders only, and looks them up as module attributes at
call time, so the traced run's wrappers see every call.  A pass is a
fixed amount of work on fresh seeded inputs (see `inputs`), run
in-process and closed-loop: each call starts when the previous one
returns.  `run` returns a pass's outputs, `check` counts the operations
whose outputs are wrong, and `digest` fingerprints the outputs so the
traced and untraced runs can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

import inputs
from impactdesk import conditions, config, fields, sde
from impactdesk.quadrature import QuadratureRule

# the linear market of the acceptance suite: endowment slope 0.5 plus a
# unit-slope stock, held at a constant 0.5
_MARKET = """
[model]
endowment = linear slope=0.5
dividend = linear slope=1

[flow]
kind = constant
position = 0.5
"""
EXP_PAIR = "agent = exponential aversion=2\nagent = exponential aversion=2"
TANH_DESK = ("agent = tanh base=2 amplitude=0.5 c=2.5\n"
             "agent = exponential aversion=2")

# log-Euler is exact for the exponential pair on the linear market, so
# every path must land on the frozen-book oracle up to solver tolerance
PATH_RTOL = 1e-8
# outputs that pass through a Newton solve may move by solver-tolerance
# amounts when the solver changes; anything larger is a wrong result
STRONG_ATOL = 1e-6       # times |oracle mean|, on errors and means
ROW_RTOL = 1e-8


@dataclass(frozen=True)
class Desk:
    """What set-up builds: the parsed config and everything built from it."""

    cfg: config.ExperimentConfig
    agents: object
    model: object
    flow: object
    sim: sde.SimulationConfig
    rule: QuadratureRule
    init: sde.InitialState


def build_desk(agents: str, sim: str) -> Desk:
    """Parse a config, build the desk from it and its initial state."""
    cfg = config.parse_config(f"[agents]\n{agents}\n{_MARKET}\n[sim]\n{sim}\n")
    members, model, flow = (cfg.build_agents(), cfg.build_model(),
                            cfg.build_flow())
    rule = QuadratureRule.gauss_hermite(cfg.quadrature)
    init = sde.initial_state(members, model, rule, cfg.weights, cfg.cash,
                             flow.initial_position)
    return Desk(cfg, members, model, flow, cfg.build_sim(), rule, init)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _path_steps_per_s(workload, desk: Desk, passes) -> tuple:
    done = [p for p in passes if p.output is not None]
    rate = (len(done) * workload.work(desk)
            / sum(p.seconds for p in done)) if done else float("nan")
    return ("path_steps_per_s", rate, "1/s", len(done))


def _failures(count: int, message: str) -> int:
    """Report `count` failed operations on stderr and return the count."""
    if count:
        print(f"perfbench: {message}", file=sys.stderr)
    return count


class EnsExp:
    name = "ens-exp"
    paths = 2000

    def setup(self) -> Desk:
        return build_desk(EXP_PAIR, f"dt = 0.03125\npaths = {self.paths}\n"
                          "quadrature = 64\ncoordinates = log\ncash = 1.5")

    def sizes(self, desk: Desk) -> dict:
        return {"paths": desk.sim.n_paths, "steps": desk.sim.n_steps,
                "nodes": desk.sim.quadrature_n, "coordinates": "log"}

    def pass_input(self, seed: int, index: int) -> int:
        return inputs.ensemble_seed(seed, index)

    def ops(self, desk: Desk) -> int:
        return desk.sim.n_paths

    def work(self, desk: Desk) -> int:
        return desk.sim.n_paths * desk.sim.n_steps

    def run(self, desk: Desk, seed: int, index: int):
        sim = replace(desk.sim, seed=self.pass_input(seed, index))
        return sde.run_ensemble(desk.agents, desk.model, desk.flow, sim,
                                weights=desk.cfg.weights, cash=desk.cfg.cash)

    def check(self, desk: Desk, seed: int, index: int, summary,
              reference: dict) -> int:
        """Paths that did not complete or missed the frozen-book oracle."""
        sim = replace(desk.sim, seed=self.pass_input(seed, index))
        p = sim.n_paths
        b1 = sde.brownian_increments(sim.seed, 0, p, sim.n_steps,
                                     sim.dt).sum(axis=1)
        exact = fields.field_core(
            desk.agents, desk.model, QuadratureRule.gauss_hermite(1), 1.0,
            b1, np.tile(desk.init.weights, (p, 1)),
            np.full(p, desk.init.cash), np.tile(desk.init.position, (p, 1)),
            order=1)["value_v"]
        err = np.abs(summary.terminal_utilities - exact).max(axis=1)
        ok = ((np.array(summary.stop_reasons) == sde.COMPLETED)
              & (err <= PATH_RTOL * np.abs(exact).max(axis=1)))
        return _failures(int(p - ok.sum()), f"{self.name} pass {index}: "
                         "paths stopped or missed the oracle")

    def digest(self, summary) -> str:
        return _digest(summary.terminal_utilities, summary.taus,
                       np.array(summary.stop_reasons))

    def report(self, desk: Desk, passes) -> list:
        done = [p for p in passes if p.output is not None]
        out = [_path_steps_per_s(self, desk, passes)]
        if done:
            # criterion 06's martingale check, pooled over the run; shown,
            # not gated: at 3 stderr it fails on correct code for about
            # 1.5% of 2000-path ensembles, and the per-path oracle check
            # above already pins every terminal value
            u = np.concatenate([p.output.terminal_utilities for p in done])
            u = u[np.isfinite(u).all(axis=1)]
            stderr = u.std(axis=0, ddof=1) / np.sqrt(u.shape[0])
            dev = np.abs(u.mean(axis=0) - desk.init.utilities) / stderr
            out.append(("terminal_mean_dev", float(dev.max()), "stderr",
                        u.shape[0]))
        return out


class StrongTanh:
    name = "strong-tanh"
    paths = 16
    dts = (2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)

    def setup(self) -> Desk:
        desk = build_desk(TANH_DESK, f"paths = {self.paths}\nquadrature = 24\n"
                          "coordinates = direct\ncash = 1.5")
        return replace(desk, sim=replace(desk.sim, newton_tol=1e-7))

    def sizes(self, desk: Desk) -> dict:
        return {"paths": desk.sim.n_paths,
                "ladder_steps": [round(1 / d) for d in self.dts],
                "nodes": desk.sim.quadrature_n, "coordinates": "direct",
                "newton_tol": desk.sim.newton_tol,
                "noise_pool": list(inputs.STRONG_NOISE_POOL)}

    def pass_input(self, seed: int, index: int) -> int:
        return inputs.strong_noise_seed(seed, index)

    def ops(self, desk: Desk) -> int:
        return desk.sim.n_paths * len(self.dts)

    def work(self, desk: Desk) -> int:
        return desk.sim.n_paths * sum(round(1 / d) for d in self.dts)

    def run(self, desk: Desk, seed: int, index: int):
        sim = replace(desk.sim, seed=self.pass_input(seed, index))
        return sde.strong_error_study(desk.agents, desk.model, desk.flow, sim,
                                      self.dts, weights=desk.cfg.weights,
                                      cash=desk.cfg.cash)

    def check(self, desk: Desk, seed: int, index: int, study,
              reference: dict) -> int:
        """Path runs that stopped, or all of them if the study drifted from
        its recorded errors and means."""
        ref = reference[self.name][str(self.pass_input(seed, index))]
        tol = STRONG_ATOL * abs(ref["oracle_mean"])
        same = (np.allclose(study.errors, ref["errors"], rtol=0, atol=tol)
                and np.allclose(study.sim_means, ref["sim_means"], rtol=0,
                                atol=tol)
                and abs(study.oracle_mean - ref["oracle_mean"])
                <= 1e-10 * abs(ref["oracle_mean"]))
        if not same:
            return _failures(self.ops(desk), f"{self.name} pass {index}: "
                             "errors or means differ from the reference")
        return _failures(sum(desk.sim.n_paths - n for n in study.n_completed),
                         f"{self.name} pass {index}: path runs stopped")

    def digest(self, study) -> str:
        return _digest(np.array(study.errors), np.array(study.sim_means),
                       np.array([study.oracle_mean]),
                       np.array(study.n_completed))

    def report(self, desk: Desk, passes) -> list:
        return [_path_steps_per_s(self, desk, passes)]


class QueryTanh:
    name = "query-tanh"
    # small passes, so a run takes the median of many: row timings swing
    # by 10-20% over tens of seconds on a shared 2-core host
    rows = 24
    n_dual, n_primal = 3, 4

    def setup(self) -> Desk:
        return build_desk(TANH_DESK, "quadrature = 24\ncash = 1.5")

    def sizes(self, desk: Desk) -> dict:
        return {"seeded_rows": self.rows,
                "anchor_rows": len(inputs.ANCHOR_STATES),
                "nodes": desk.cfg.quadrature,
                "certify_times": list(inputs.CERTIFY_TIMES),
                "dual_grid": self.n_dual,
                "primal_grid": self.n_primal}

    def pass_input(self, seed: int, index: int) -> list:
        return [seed, index]

    def ops(self, desk: Desk) -> int:
        return len(inputs.ANCHOR_STATES) + self.rows + 1

    def _states(self, seed: int, index: int) -> np.ndarray:
        return np.concatenate([np.array(inputs.ANCHOR_STATES),
                               inputs.query_states(seed, index, self.rows)])

    def _grids(self, seed: int, index: int):
        return inputs.certify_grids(seed, index, self.n_dual, self.n_primal)

    def _row(self, desk: Desk, t: float, z: float):
        """One `impactdesk fields` row: field, then the coefficient row."""
        v = np.asarray(desk.cfg.weights)
        q = desk.flow.initial_position
        out = fields.field_core(desk.agents, desk.model, desk.rule, t, [z],
                                v[None], [desk.cfg.cash], q[None], order=2,
                                with_integrand=True)
        coef, point = fields.eval_sde_coefficient(
            desk.agents, desk.model, desk.rule, t, z, out["value_v"][0], q)
        return out, coef, point

    def run(self, desk: Desk, seed: int, index: int) -> dict:
        rows = []
        for t, z in self._states(seed, index):
            start = time.perf_counter()
            try:
                row = self._row(desk, float(t), float(z))
            except Exception:
                row = traceback.format_exc()
            rows.append((time.perf_counter() - start, row))
        dual, primal = self._grids(seed, index)
        start = time.perf_counter()
        try:
            cert = (conditions.check_all_regimes(desk.agents, desk.model),
                    conditions.eval_functionals(
                        desk.agents, desk.model, desk.rule,
                        inputs.CERTIFY_TIMES, dual_grid=dual,
                        primal_grid=primal))
        except Exception:
            cert = traceback.format_exc()
        return {"rows": rows, "certify": (time.perf_counter() - start, cert)}

    @staticmethod
    def _row_values(row) -> np.ndarray:
        out, coef, _ = row
        return np.concatenate([out["value"], out["value_x"],
                               out["value_v"][0], out["integrand"],
                               out["integrand_v"][0], coef])

    def _row_ok(self, desk: Desk, t: float, z: float, row) -> bool:
        """The conjugate point reproduces its targets, and its coefficient
        row equals the integrand gradient (weight-scale invariance)."""
        out, coef, point = row
        q = desk.flow.initial_position
        back = fields.field_core(desk.agents, desk.model, desk.rule, t, [z],
                                 point.weights[None], [point.cash], q[None],
                                 order=1)
        return bool(
            np.allclose(back["value_v"][0], out["value_v"][0], rtol=ROW_RTOL,
                        atol=0)
            and abs(back["value_x"][0] - 1.0) <= ROW_RTOL
            and np.allclose(coef, out["integrand_v"][0], rtol=ROW_RTOL,
                            atol=0))

    def _functionals_ok(self, desk: Desk, grids, samples) -> bool:
        """Every dual point has a finite load that matches the single-row
        coefficient route; M and N match a direct field evaluation."""
        (du, dq), (pv, px, pq) = grids
        a, m, rule = desk.agents, desk.model, desk.rule
        ok = bool(np.isfinite(samples.l_values).all())
        b = samples.bound
        for k, t in enumerate(inputs.CERTIFY_TIMES):
            j = k % self.n_dual
            coef, _ = fields.eval_sde_coefficient(a, m, rule, t, 0.0, du[j],
                                                  dq[j])
            load = (np.sum((coef / du[j]) ** 2)
                    / (1.0 + np.sum(np.abs(np.log(-du[j])))))
            ok &= bool(abs(load - samples.l_values[k, j])
                       <= ROW_RTOL * abs(load))
            f = fields.field_core(a, m, rule, t, np.zeros(px.size), pv, px,
                                  pq, order=2, with_integrand=True)
            hv, fv, fx = f["integrand_v"], f["value_v"], f["value_x"]
            scale = 1.0 + np.abs(px)
            in_q = np.all(np.abs(pq) <= b, axis=1)
            want_m = np.where(in_q & np.all(fv >= -b, axis=1),
                              np.sum((hv / fv) ** 2, axis=1) / scale, np.nan)
            want_n = np.where(in_q & np.all(fx[:, None] <= b * pv, axis=1),
                              np.sum((pv * hv) ** 2, axis=1)
                              / (scale * fx ** 2), np.nan)
            ok &= bool(np.allclose(samples.m_values[k], want_m, rtol=ROW_RTOL,
                                   atol=0, equal_nan=True)
                       and np.allclose(samples.n_values[k], want_n,
                                       rtol=ROW_RTOL, atol=0, equal_nan=True))
        return ok

    def check(self, desk: Desk, seed: int, index: int, out: dict,
              reference: dict) -> int:
        """Rows and certification passes whose outputs are wrong."""
        ref = reference[self.name]
        failed = 0
        for k, ((t, z), (_, row)) in enumerate(
                zip(self._states(seed, index), out["rows"])):
            if isinstance(row, str):
                failed += _failures(1, row)
                continue
            ok = self._row_ok(desk, float(t), float(z), row)
            if k < len(inputs.ANCHOR_STATES):
                ok &= bool(np.allclose(self._row_values(row),
                                       ref["anchors"][k], rtol=ROW_RTOL,
                                       atol=0))
            failed += _failures(int(not ok), f"{self.name} pass {index}: "
                                f"row {k} fails its check")
        cert = out["certify"][1]
        if isinstance(cert, str):
            return failed + _failures(1, cert)
        reports, samples = cert
        ok = [r.verdict for r in reports] == ref["regimes"]
        ok = ok and self._functionals_ok(desk, self._grids(seed, index),
                                         samples)
        return failed + _failures(int(not ok), f"{self.name} pass {index}: "
                                  "certification fails its check")

    def digest(self, out: dict) -> str:
        parts = []
        for _, row in out["rows"]:
            if isinstance(row, str):
                parts.append(np.frombuffer(row.encode(), dtype=np.uint8))
                continue
            point = row[2]
            parts += [self._row_values(row), point.weights,
                      np.array([point.cash])]
        cert = out["certify"][1]
        if isinstance(cert, str):
            parts.append(np.frombuffer(cert.encode(), dtype=np.uint8))
        else:
            reports, samples = cert
            parts += [np.array([r.verdict for r in reports]),
                      samples.l_values, samples.m_values, samples.n_values]
        return _digest(*parts)

    def report(self, desk: Desk, passes) -> list:
        done = [p for p in passes if p.output is not None]
        if not done:
            return []
        rows = np.array([s for p in done for s, _ in p.output["rows"]])
        cert = [p.output["certify"][0] for p in done]
        return [("row_ms_p50", 1e3 * float(np.percentile(rows, 50)), "ms",
                 rows.size),
                ("row_ms_p90", 1e3 * float(np.percentile(rows, 90)), "ms",
                 rows.size),
                ("certify_s", statistics.median(cert), "s", len(cert))]


WORKLOADS = {w.name: w for w in (EnsExp(), StrongTanh(), QueryTanh())}
