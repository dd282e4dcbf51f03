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


def _params(cfg: dict) -> ModelParams:
    return ModelParams(mu=cfg["mu"], alpha=cfg["alpha"])


def _velocity_grid(cfg: dict) -> np.ndarray:
    if cfg.get("velocities"):
        return np.array([float(tok) for tok in cfg["velocities"].split(",")])
    return np.linspace(cfg["v_min"], cfg["v_max"], cfg["n_points"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kinetic(cfg: dict) -> int:
    params = _params(cfg)
    pts = newwave.kinetic_curve(_velocity_grid(cfg), params, m=cfg["m"],
                                kernel=cfg["kernel"])
    rows = [(p.V, p.sigma, p.z, p.branch, p.admissible, p.flag) for p in pts]
    _write(cfg["out"], _csv("V,sigma,z,branch,admissible,flag", rows))
    return EXIT_OK


def cmd_wave(cfg: dict) -> int:
    params = _params(cfg)
    wave = newwave.kinetic_wave(cfg["velocity"], params, m=cfg["m"],
                                kernel=cfg["kernel"])
    xi = np.linspace(cfg["xi_min"], cfg["xi_max"], cfg["n_samples"])
    u = wave.evaluate(xi, method="residue")
    _write(cfg["out"] + ".csv", _csv("xi,u", zip(xi, u)))
    _write_sidecar(cfg["out"] + ".json", wave)
    return EXIT_OK


def cmd_shape(cfg: dict) -> int:
    params = _params(cfg)
    wave = newwave.kinetic_wave(cfg["velocity"], params, m=cfg["m"],
                                kernel=cfg["kernel"])
    _write(cfg["out"] + ".csv",
           _csv("s,mass", zip(wave.shape.s, wave.shape.a)))
    _write_sidecar(cfg["out"] + ".json", wave)
    return EXIT_OK


def cmd_bifurcation(cfg: dict) -> int:
    params = _params(cfg)
    rows = []
    for V in _velocity_grid(cfg):
        jet = bif.kernel_jet(V, params)
        z_lin = bif.z_linear(jet)
        z_qua = bif.z_quartic(jet)
        if cfg["skip_numeric"]:
            z_num = np.nan
        else:
            z_num = newwave.kinetic_wave(V, params, m=cfg["m"],
                                         kernel=cfg["kernel"]).z
        rows.append((V, z_num, z_lin, z_qua, jet.q0, jet.q_plus,
                     jet.q_minus))
    _write(cfg["out"],
           _csv("V,z_numeric,z_linear,z_quartic,q0,q_plus,q_minus", rows))
    return EXIT_OK


def cmd_resonances(cfg: dict) -> int:
    params = _params(cfg)
    rows = resonance_velocities(params, count=cfg["count"])
    _write(cfg["out"], _csv("V,k", rows))
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    params = _params(cfg)
    if cfg["ic"] == "riemann":
        if cfg["sigma"] is None:
            raise UsageError("--sigma is required for the riemann initial "
                             "condition")
        state = chain.init_riemann(cfg["n"], params, cfg["sigma"],
                                   n0=cfg["n0"])
    else:
        if cfg["velocity"] is None:
            raise UsageError("--velocity is required for the wave initial "
                             "condition")
        if cfg["sigma"] is not None:
            raise UsageError("--sigma conflicts with ic=wave; the wave "
                             "carries its own kinetic stress")
        wave = newwave.kinetic_wave(cfg["velocity"], params, m=cfg["m"],
                                    kernel=cfg["kernel"])
        state = chain.init_from_wave(wave, cfg["n"], n0=cfg["n0"])
    out = chain.run_and_classify(state, cfg["t_final"], cfg["dt"])
    base = cfg["out"]
    _write(base + "_front.csv", _csv("t,nu", zip(out.times, out.fronts)))
    n_idx = np.arange(state.N + 1)
    _write(base + "_snapshot.csv",
           _csv("n,u,v", zip(n_idx, state.u, state.v)))
    _write(base + "_outcome.json", _json({
        "classification": out.classification,
        "velocity": None if np.isnan(out.velocity) else out.velocity,
        "sigma": out.sigma, "flags": list(out.flags),
        "backend": chain.BACKEND}))
    return EXIT_OK


def cmd_threshold(cfg: dict) -> int:
    params = _params(cfg)
    if cfg["dynamic"]:
        res = chain.sweep_dynamic_threshold(
            params, cfg["sigma_lo"], cfg["sigma_hi"], N=cfg["n"],
            T=cfg["t_final"], dt=cfg["dt"], tol=cfg["tol"])
        payload = {"sigma_D": res.sigma_D, "bracket": list(res.bracket),
                   "runs": [[s, c] for s, c in res.history],
                   "backend": chain.BACKEND}
    else:
        V0 = bif.threshold_V0(params, tol=cfg["tol_v"])
        payload = {"V0": V0, "mu": params.mu, "alpha": params.alpha}
    _write(cfg["out"], _json(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


COMMON_DEFAULTS = {"mu": 1.0, "alpha": 0.0, "out": None}
PIPELINE_DEFAULTS = {"m": newwave.DEFAULT_MESH, "kernel": "quad"}

# defaults per subcommand; these names are also the accepted config keys
DEFAULTS: dict[str, dict] = {
    "kinetic": {**COMMON_DEFAULTS, **PIPELINE_DEFAULTS, "velocities": None,
                "v_min": 0.05, "v_max": 0.6, "n_points": 23},
    "wave": {**COMMON_DEFAULTS, **PIPELINE_DEFAULTS, "velocity": None,
             "xi_min": -40.0, "xi_max": 40.0, "n_samples": 1601},
    "shape": {**COMMON_DEFAULTS, **PIPELINE_DEFAULTS, "velocity": None},
    "bifurcation": {**COMMON_DEFAULTS, **PIPELINE_DEFAULTS,
                    "velocities": None, "v_min": 0.335, "v_max": 0.356,
                    "n_points": 5, "skip_numeric": False},
    "resonances": {**COMMON_DEFAULTS, "count": 5},
    "simulate": {**COMMON_DEFAULTS, **PIPELINE_DEFAULTS, "ic": "riemann",
                 "sigma": None, "velocity": None, "n": 1000, "n0": None,
                 "t_final": 2000.0, "dt": 0.01},
    "threshold": {**COMMON_DEFAULTS, "dynamic": False, "tol_v": bif.V0_TOL,
                  "sigma_lo": 0.1, "sigma_hi": 0.2, "n": 1000,
                  "t_final": 2000.0, "dt": 0.01, "tol": 2e-3},
}

HANDLERS = {
    "kinetic": cmd_kinetic,
    "wave": cmd_wave,
    "shape": cmd_shape,
    "bifurcation": cmd_bifurcation,
    "resonances": cmd_resonances,
    "simulate": cmd_simulate,
    "threshold": cmd_threshold,
}

# subcommands whose --out names a base path for several files
OUT_REQUIRED = {"wave", "shape", "simulate"}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fkwaves",
        description="Traveling waves of the driven bistable chain.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, argument_default=argparse.SUPPRESS)
        p.add_argument("--mu", type=float, help="coupling strength (> 0)")
        p.add_argument("--alpha", type=float, help="damping (>= 0)")
        p.add_argument("--config", type=str,
                       help="JSON file with option defaults; flags override")
        p.add_argument("--out", type=str,
                       help="output path (base path for multi-file output); "
                            "stdout when omitted where possible")
        return p

    p = add("kinetic", "sigma(V) along the admissible branch")
    p.add_argument("--velocities", type=str,
                   help="comma-separated velocity list (overrides the grid)")
    p.add_argument("--v-min", dest="v_min", type=float)
    p.add_argument("--v-max", dest="v_max", type=float)
    p.add_argument("--n-points", dest="n_points", type=int)
    _add_pipeline(p)

    p = add("wave", "profile u(xi) of the admissible wave at one velocity")
    p.add_argument("--velocity", type=float, required=True)
    p.add_argument("--xi-min", dest="xi_min", type=float)
    p.add_argument("--xi-max", dest="xi_max", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    _add_pipeline(p)

    p = add("shape", "plateau shape function at one velocity")
    p.add_argument("--velocity", type=float, required=True)
    _add_pipeline(p)

    p = add("bifurcation", "kernel jet and plateau-width laws near onset")
    p.add_argument("--velocities", type=str)
    p.add_argument("--v-min", dest="v_min", type=float)
    p.add_argument("--v-max", dest="v_max", type=float)
    p.add_argument("--n-points", dest="n_points", type=int)
    p.add_argument("--skip-numeric", dest="skip_numeric",
                   action="store_true",
                   help="omit the z_numeric column (much faster)")
    _add_pipeline(p)

    p = add("resonances", "velocities where a phonon comoves with the front")
    p.add_argument("--count", type=int, help="keep only the largest few")

    p = add("simulate", "direct chain run with front classification")
    p.add_argument("--ic", choices=("riemann", "wave"))
    p.add_argument("--sigma", type=float)
    p.add_argument("--velocity", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--n0", type=int)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--dt", type=float)
    _add_pipeline(p)

    p = add("threshold", "bifurcation velocity V0 or dynamic stress")
    p.add_argument("--dynamic", action="store_true",
                   help="bisect the depinning stress by direct simulation")
    p.add_argument("--tol-v", dest="tol_v", type=float)
    p.add_argument("--sigma-lo", dest="sigma_lo", type=float)
    p.add_argument("--sigma-hi", dest="sigma_hi", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
    return ap


def _add_pipeline(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, help="plateau mesh size")
    p.add_argument("--kernel", choices=("quad", "residue"),
                   help="kernel evaluation route")


def _merge_config(command: str, ns: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS[command])
    given = {k: v for k, v in vars(ns).items() if k != "command"}
    path = given.pop("config", None)
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config must be a JSON object")
        unknown = sorted(set(loaded) - set(cfg))
        if unknown:
            raise UsageError(
                f"unknown config keys for {command}: {', '.join(unknown)}")
        cfg.update(loaded)
    cfg.update(given)
    if command in OUT_REQUIRED and cfg["out"] is None:
        raise UsageError(f"{command} writes multiple files; --out is required")
    return cfg


def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    try:
        cfg = _merge_config(ns.command, ns)
        return HANDLERS[ns.command](cfg)
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
