"""Command-line interface.

Subcommands map onto the library layers: kinetic / wave / shape for the
traveling-wave reconstruction, bifurcation for the small-plateau expansion,
resonances for the forbidden velocities, simulate for direct chain runs,
threshold for the bifurcation velocity or the dynamic depinning stress.

Exit codes: 0 success, 2 usage or configuration error, 3 no solution exists
for the request, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import bifurcation as bif
from . import chain
from . import newwave
from .dispersion import resonance_velocities
from .errors import (
    FKWavesError,
    NoAdmissibleWave,
    NoCandidate,
    NoFront,
    NoPositiveRoot,
    NoSignChange,
    ResonantVelocity,
)
from .params import ModelParams

FMT = "%.17g"
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_SOLUTION = 3
EXIT_NUMERIC = 4

NO_SOLUTION_ERRORS = (ResonantVelocity, NoCandidate, NoAdmissibleWave,
                      NoSignChange, NoPositiveRoot, NoFront)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return FMT % x
    return str(x)


def _csv(header: str, rows) -> str:
    lines = [header] + [",".join(_fmt(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write(path: str | None, text: str) -> None:
    """text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_sidecar(path: str, wave: newwave.WaveSolution) -> None:
    _write(path, _json({"V": wave.V, "z": wave.z, "sigma": wave.sigma,
                        "residual": wave.residual}))


def _velocity_grid(args) -> np.ndarray:
    if args.velocities:
        return np.array([float(tok) for tok in args.velocities.split(",")])
    return np.linspace(args.v_min, args.v_max, args.n_points)


def _wave(V: float, params: ModelParams, args) -> newwave.WaveSolution:
    return newwave.kinetic_wave(V, params, m=args.m)


def _velocity(args) -> float:
    """The one velocity of wave, shape and simulate --ic wave, which the
    flag or the config file sets."""
    if args.velocity is None:
        raise UsageError("--velocity is required: give the flag or the "
                         "config key")
    return args.velocity


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kinetic(args, params: ModelParams) -> None:
    pts = newwave.kinetic_curve(_velocity_grid(args), params, m=args.m)
    rows = [(p.V, p.sigma, p.z, p.branch, p.admissible, p.flag) for p in pts]
    _write(args.out, _csv("V,sigma,z,branch,admissible,flag", rows))


def cmd_wave(args, params: ModelParams) -> None:
    wave = _wave(_velocity(args), params, args)
    xi = np.linspace(args.xi_min, args.xi_max, args.n_samples)
    u = wave.evaluate(xi, method="residue")
    _write(args.out + ".csv", _csv("xi,u", zip(xi, u)))
    _write_sidecar(args.out + ".json", wave)


def cmd_shape(args, params: ModelParams) -> None:
    wave = _wave(_velocity(args), params, args)
    _write(args.out + ".csv",
           _csv("s,mass", zip(wave.shape.s, wave.shape.a)))
    _write_sidecar(args.out + ".json", wave)


def cmd_bifurcation(args, params: ModelParams) -> None:
    rows = []
    for V in _velocity_grid(args):
        jet = bif.kernel_jet(V, params)
        z_num = np.nan if args.skip_numeric else _wave(V, params, args).z
        rows.append((V, z_num, bif.z_linear(jet), bif.z_quartic(jet),
                     jet.q0, jet.q_plus, jet.q_minus))
    _write(args.out,
           _csv("V,z_numeric,z_linear,z_quartic,q0,q_plus,q_minus", rows))


def cmd_resonances(args, params: ModelParams) -> None:
    rows = resonance_velocities(params, count=args.count)
    _write(args.out, _csv("V,k", rows))


def cmd_simulate(args, params: ModelParams) -> None:
    if args.ic == "riemann":
        if args.sigma is None:
            raise UsageError("--sigma is required for the riemann initial "
                             "condition")
        state = chain.init_riemann(args.n, params, args.sigma, n0=args.n0)
    else:
        V = _velocity(args)
        if args.sigma is not None:
            raise UsageError("--sigma conflicts with ic=wave; the wave "
                             "carries its own kinetic stress")
        state = chain.init_from_wave(_wave(V, params, args), args.n,
                                     n0=args.n0)
    out = chain.run_and_classify(state, args.t_final, args.dt)
    _write(args.out + "_front.csv", _csv("t,nu", zip(out.times, out.fronts)))
    _write(args.out + "_snapshot.csv",
           _csv("n,u,v", zip(np.arange(state.N + 1), state.u, state.v)))
    _write(args.out + "_outcome.json", _json({
        "classification": out.classification,
        "velocity": None if np.isnan(out.velocity) else out.velocity,
        "sigma": out.sigma, "flags": list(out.flags),
        "backend": chain.BACKEND}))


def cmd_threshold(args, params: ModelParams) -> None:
    if args.dynamic:
        res = chain.sweep_dynamic_threshold(
            params, args.sigma_lo, args.sigma_hi, N=args.n, T=args.t_final,
            dt=args.dt, tol=args.tol)
        payload = {"sigma_D": res.sigma_D, "bracket": list(res.bracket),
                   "runs": [[s, c] for s, c in res.history],
                   "backend": chain.BACKEND}
    else:
        V0 = bif.threshold_V0(params, tol=args.tol_v)
        payload = {"V0": V0, "mu": params.mu, "alpha": params.alpha}
    _write(args.out, _json(payload))


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


# subcommands whose --out names a base path for several files
OUT_REQUIRED = {"wave", "shape", "simulate"}


def _build_parser():
    """The fkwaves parser, and its subcommand parsers by name."""
    ap = argparse.ArgumentParser(
        prog="fkwaves",
        description="Traveling waves of the driven bistable chain.")
    sub = ap.add_subparsers(dest="command", required=True)
    wave_parsers = []

    def add(name: str, handler, help_: str, waves: bool = False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--mu", type=float, default=1.0,
                       help="coupling strength (> 0)")
        p.add_argument("--alpha", type=float, default=0.0,
                       help="damping (>= 0)")
        p.add_argument("--config", type=str,
                       help="JSON file with option defaults; flags override")
        p.add_argument("--out", type=str,
                       help="output path (base path for multi-file output); "
                            "stdout when omitted where possible")
        if waves:
            wave_parsers.append(p)
        return p

    def velocity_grid(p, v_min, v_max, n_points, help_=None) -> None:
        p.add_argument("--velocities", type=str, help=help_)
        p.add_argument("--v-min", type=float, default=v_min)
        p.add_argument("--v-max", type=float, default=v_max)
        p.add_argument("--n-points", type=int, default=n_points)

    def chain_run(p, n0: bool = False) -> None:
        p.add_argument("--n", type=int, default=1000)
        if n0:
            p.add_argument("--n0", type=int)
        p.add_argument("--t-final", type=float, default=2000.0)
        p.add_argument("--dt", type=float, default=0.01)

    p = add("kinetic", cmd_kinetic, "sigma(V) along the admissible branch",
            waves=True)
    velocity_grid(p, 0.05, 0.6, 23,
                  "comma-separated velocity list (overrides the grid)")

    p = add("wave", cmd_wave,
            "profile u(xi) of the admissible wave at one velocity",
            waves=True)
    p.add_argument("--velocity", type=float)
    p.add_argument("--xi-min", type=float, default=-40.0)
    p.add_argument("--xi-max", type=float, default=40.0)
    p.add_argument("--n-samples", type=int, default=1601)

    p = add("shape", cmd_shape, "plateau shape function at one velocity",
            waves=True)
    p.add_argument("--velocity", type=float)

    p = add("bifurcation", cmd_bifurcation,
            "kernel jet and plateau-width laws near onset", waves=True)
    velocity_grid(p, 0.335, 0.356, 5)
    p.add_argument("--skip-numeric", action="store_true",
                   help="omit the z_numeric column (much faster)")

    p = add("resonances", cmd_resonances,
            "velocities where a phonon comoves with the front")
    p.add_argument("--count", type=int, default=5,
                   help="keep only the largest few")

    p = add("simulate", cmd_simulate,
            "direct chain run with front classification", waves=True)
    p.add_argument("--ic", choices=("riemann", "wave"), default="riemann")
    p.add_argument("--sigma", type=float)
    p.add_argument("--velocity", type=float)
    chain_run(p, n0=True)

    p = add("threshold", cmd_threshold,
            "bifurcation velocity V0 or dynamic stress")
    p.add_argument("--dynamic", action="store_true",
                   help="bisect the depinning stress by direct simulation")
    p.add_argument("--tol-v", type=float, default=bif.V0_TOL)
    p.add_argument("--sigma-lo", type=float, default=0.1)
    p.add_argument("--sigma-hi", type=float, default=0.2)
    chain_run(p)
    p.add_argument("--tol", type=float, default=2e-3)

    # the plateau-wave flag comes last in each help listing
    for p in wave_parsers:
        p.add_argument("--m", type=int, default=newwave.DEFAULT_MESH,
                       help="plateau mesh size")
    return ap, sub.choices


# each option type: the JSON types of the config values it takes, and how
# an error message names them
CONFIG_TYPES = {bool: ((bool,), "true or false"),
                float: ((str, int, float), "a number"),
                int: ((str, int), "an integer"), str: ((str,), "a string")}


def _config_value(action: argparse.Action, key: str, value):
    """The value of config key as its option takes it, or a UsageError that
    names the key: a switch takes true or false, any other option what its
    flag would accept, a JSON string as the flag's text or a number where
    the option is numeric."""
    convert = bool if action.nargs == 0 else action.type or str
    types, want = CONFIG_TYPES[convert]
    if type(value) in types:
        with contextlib.suppress(ValueError, OverflowError):
            taken = convert(value)
            if action.choices is None or taken in action.choices:
                return taken
    if action.choices:
        want = f"one of {', '.join(action.choices)}"
    raise UsageError(f"config key {key} takes {want}, not "
                     f"{json.dumps(value)}")


def _read_config(args: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> dict:
    """The --config file's options; each key must name an option of parser
    and hold a value its flag would accept."""
    try:
        with open(args.config) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}")
    if not isinstance(loaded, dict):
        raise UsageError("config must be a JSON object")
    actions = {action.dest: action for action in parser._actions
               if action.dest not in ("help", "config")}
    unknown = sorted(set(loaded) - set(actions))
    if unknown:
        raise UsageError(
            f"unknown config keys for {args.command}: {', '.join(unknown)}")
    return {key: _config_value(actions[key], key, value)
            for key, value in loaded.items()}


def main(argv=None) -> int:
    ap, subparsers = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config is not None:
            # the file replaces defaults only, so flags still win
            parser = subparsers[args.command]
            parser.set_defaults(**_read_config(args, parser))
            args = ap.parse_args(argv)
        if args.command in OUT_REQUIRED and args.out is None:
            raise UsageError(f"{args.command} writes multiple files; "
                             "--out is required")
        args.handler(args, ModelParams(mu=args.mu, alpha=args.alpha))
        return EXIT_OK
    except (UsageError, ValueError) as exc:
        # the library raises ValueError for out-of-range arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NO_SOLUTION_ERRORS as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except FKWavesError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
