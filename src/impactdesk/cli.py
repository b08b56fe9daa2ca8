"""Command-line driver: check / fields / simulate / oracle.

Every run loads one experiment config, applies flag overrides, writes
the effective (default-filled) config next to its outputs, and tags
every file header with the config's content hash.  Outputs are a pure
function of (config, flags): no timestamps, no machine state, and the
worker count — taken from the IMPACTDESK_WORKERS environment variable
by the simulation layer — never changes a byte of them.

Exit codes: 0 success (for `check`: some regime certified), 1 check
found no certificate, 2 bad config or usage, or an initial state whose
field leaves double precision.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .conditions import PASS, check_all_regimes
from .config import ConfigError, ExperimentConfig, load_config, parse_eps
from .fields import FieldRangeError, coefficient_rows, field_core
from .quadrature import QuadratureRule
from .sde import run_ensemble, strong_error_study

ORACLE_LEVELS = 4   # dt ladder 8dt, 4dt, 2dt, dt for the error table


def _fmt(x: float, precision: int) -> str:
    return "%.*g" % (precision, x)


def _header(cfg: ExperimentConfig, command: str) -> list[str]:
    return [f"# impactdesk {command}",
            f"# config sha256 {cfg.content_hash}"]


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_echo(out_dir: str, cfg: ExperimentConfig, command: str) -> None:
    # '#' opens a comment line, so the tagged echo stays parseable
    _write(os.path.join(out_dir, "config.txt"),
           _header(cfg, command) + [cfg.echo().rstrip("\n")])


# --------------------------------------------------------------------------
# subcommands


def _run_check(cfg: ExperimentConfig, out_dir: str) -> int:
    agents, model = cfg.build_agents(), cfg.build_model()
    reports = check_all_regimes(agents, model)
    lines = _header(cfg, "check")
    for rep in reports:
        lines.append("")
        lines.extend(rep.lines())
    certified = [rep.regime for rep in reports if rep.verdict == PASS]
    lines.append("")
    lines.append("certificate: " + (
        "PASS (regime " + ", ".join(str(k) for k in certified) + ")"
        if certified else "NONE"))
    _write(os.path.join(out_dir, "check.txt"), lines)
    print("\n".join(lines))
    return 0 if certified else 1


def _run_fields(cfg: ExperimentConfig, out_dir: str) -> int:
    agents, model = cfg.build_agents(), cfg.build_model()
    flow = cfg.build_flow()
    rule = QuadratureRule.gauss_hermite(cfg.quadrature)
    m, j, p = agents.size, model.n_dividends, cfg.precision
    header = (["t", "z"] + [f"v{i+1}" for i in range(m)] + ["x"]
              + [f"q{i+1}" for i in range(j)]
              + ["F", "Fx"] + [f"Fv{i+1}" for i in range(m)]
              + ["H"] + [f"Hv{i+1}" for i in range(m)]
              + [f"K{i+1}" for i in range(m)])
    lines = _header(cfg, "fields") + [",".join(header)]
    v = np.asarray(cfg.weights)
    z = np.asarray(cfg.grid_levels, dtype=float)
    for t in cfg.grid_times:
        # a config builds only schedules, whose position depends on t alone
        q = np.broadcast_to(flow.position_at(t), (z.size, j))
        out = field_core(agents, model, rule, t, z, v[None], [cfg.cash], q,
                         order=2, with_integrand=True)
        # the coefficient rows go back through the conjugate solve, nan
        # where it does not converge; weight-scale invariance makes them
        # agree with Hv
        coef = coefficient_rows(agents, model, rule, t, z, out["value_v"],
                                q).coefficient
        for i in range(z.size):
            row = ([t, z[i]] + list(v) + [cfg.cash] + list(q[i])
                   + [out["value"][i], out["value_x"][i]]
                   + list(out["value_v"][i]) + [out["integrand"][i]]
                   + list(out["integrand_v"][i]) + list(coef[i]))
            lines.append(",".join(_fmt(x, p) for x in row))
    _write(os.path.join(out_dir, "fields.csv"), lines)
    print(f"fields: wrote {len(cfg.grid_times) * len(cfg.grid_levels)} "
          f"states to {out_dir}/fields.csv")
    return 0


def _run_simulate(cfg: ExperimentConfig, out_dir: str) -> int:
    agents, model = cfg.build_agents(), cfg.build_model()
    flow, sim = cfg.build_flow(), cfg.build_sim()
    record = min(cfg.output_paths, cfg.n_paths)
    summary = run_ensemble(agents, model, flow, sim,
                           weights=cfg.weights, cash=cfg.cash,
                           record=record)
    m, j, p = agents.size, model.n_dividends, cfg.precision

    for i, path in enumerate(summary.recorded):
        header = (["t", "B"] + [f"U{k+1}" for k in range(m)] + ["cash"]
                  + [f"v{k+1}" for k in range(m)]
                  + [f"Q{k+1}" for k in range(j)] + ["stopped"])
        lines = _header(cfg, "simulate") + [f"# path {i}",
                                            ",".join(header)]
        last = path.times.size - 1
        for r in range(path.times.size):
            row = ([path.times[r], path.brownian[r]]
                   + list(path.utilities[r]) + [path.cash[r]]
                   + list(path.weights[r]) + list(path.position[r]))
            flag = 1 if (path.stopped and r == last) else 0
            lines.append(",".join(_fmt(x, p) for x in row) + f",{flag}")
        _write(os.path.join(out_dir, f"path-{i:04d}.csv"), lines)

    lines = _header(cfg, "simulate")
    lines += [
        f"paths = {summary.n_paths}",
        f"dt = {_fmt(summary.dt, p)}",
        f"seed = {summary.seed}",
        f"coordinates = {summary.coordinates}",
        f"completed = {summary.n_completed}",
        f"explosion = {summary.n_explosion}",
        f"conjugate-infeasible = {summary.n_infeasible}",
        "initial = " + ",".join(_fmt(x, p)
                                for x in summary.initial_utilities),
        "terminal_mean = " + ",".join(_fmt(x, p)
                                      for x in summary.terminal_mean),
        "terminal_stderr = " + ",".join(_fmt(x, p)
                                        for x in summary.terminal_stderr),
    ]
    _write(os.path.join(out_dir, "summary.txt"), lines)
    print("\n".join(lines[2:]))
    return 0


def _run_oracle(cfg: ExperimentConfig, out_dir: str) -> int:
    agents, model = cfg.build_agents(), cfg.build_model()
    flow, sim = cfg.build_flow(), cfg.build_sim()
    steps = int(round(1.0 / cfg.dt))
    if steps % 2 ** (ORACLE_LEVELS - 1):
        raise ConfigError(
            f"sim.dt must leave 1/dt divisible by "
            f"{2 ** (ORACLE_LEVELS - 1)} for the {ORACLE_LEVELS}-level "
            f"error table")
    dts = [cfg.dt * 2 ** k for k in range(ORACLE_LEVELS - 1, -1, -1)]
    study = strong_error_study(agents, model, flow, sim, dts,
                               weights=cfg.weights, cash=cfg.cash)
    p = cfg.precision
    lines = _header(cfg, "oracle")
    lines.append("dt,steps,completed,sim_mean,oracle_mean,"
                 "mean_abs_error,ratio_vs_coarser")
    for i, dt in enumerate(study.dts):
        ratio = float("nan") if i == 0 else study.ratios[i - 1]
        row = [dt, int(round(1.0 / dt)), study.n_completed[i],
               study.sim_means[i], study.oracle_mean, study.errors[i],
               ratio]
        lines.append(",".join(_fmt(x, p) for x in row))
    _write(os.path.join(out_dir, "oracle.csv"), lines)
    print("\n".join(lines[2:]))
    return 0


# --------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactdesk",
        description="Dealer-desk field tables, SDE simulation, and "
                    "wellposedness certificates.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="experiment config file")
    common.add_argument("--out", default=".",
                        help="output directory (created if missing)")
    common.add_argument("--seed", type=int, help="override sim.seed")
    common.add_argument("--paths", type=int, help="override sim.paths")
    common.add_argument("--dt", type=float, help="override sim.dt")
    common.add_argument("--quadrature", type=int,
                        help="override sim.quadrature")
    common.add_argument("--eps", help="override sim.eps (number or 'auto')")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common],
                   help="evaluate the three wellposedness regimes")
    sub.add_parser("fields", parents=[common],
                   help="tabulate field, integrand, and coefficient values")
    sub.add_parser("simulate", parents=[common],
                   help="run the utility SDE ensemble")
    sub.add_parser("oracle", parents=[common],
                   help="simulation-vs-quadrature-oracle error table")
    return parser


_COMMANDS = {"check": _run_check, "fields": _run_fields,
             "simulate": _run_simulate, "oracle": _run_oracle}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        eps = "keep" if args.eps is None else parse_eps(args.eps)
        cfg = cfg.override(dt=args.dt, paths=args.paths, seed=args.seed,
                           quadrature=args.quadrature, eps=eps)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        _write_echo(out_dir, cfg, args.command)
        return _COMMANDS[args.command](cfg, out_dir)
    except (ConfigError, FieldRangeError, OSError, ValueError) as exc:
        print(f"impactdesk: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
