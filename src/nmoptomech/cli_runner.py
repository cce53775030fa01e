"""Command-line runner: config parsing, scenario presets, sweeps, output.

Configs are sectioned key=value text (see README for the grammar).
Resolution order is hard defaults, then scenario preset, then the config
file, then command-line flags; every effective value is echoed to
``resolved.cfg`` in the output directory together with where it came
from.  CSV is the output contract (first column t, 17 significant
digits); SVG plots are a convenience rendered with no external
dependencies.
"""

import argparse
import configparser
import difflib
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalFailure, _outside_stacklevel
from .fock import (
    # not called here; the benchmark tracer wraps this name
    average_trajectories,  # noqa: F401
    basis_state,
    build_operators,
    integrate_master,
    integrate_thermal_master,
    moments_from_rho,
    projector,
    propagate_ensemble,
)
# log_negativity is not called here; the benchmark tracer wraps this name
from .gaussian_ent import log_negativity, symplectic_readout  # noqa: F401
from .kernel import DeltaKernel, OUKernel, TabulatedKernel, read_kernel_table
from .moments import EnReadout, covariances, integrate_moments, occupations, vacuum
from .ocoeff import _SLAB_BUDGET, OCoefficientSeries, ou_closed_blocks, solve_ocoeff
from .params import PhysicalParams, LinearizedSystem, linearize, solve_mean_field
from .stepping import _BLOCK, TimeGrid
from .thermal import effective_kernels, frequency_window, solve_thermal_ocoeff

__all__ = ["RunConfig", "parse_config", "run_scenario", "main"]

_SCENARIOS = ("fig2", "fig3", "fig4", "fig5", "custom")
_SWEEPABLE = ("gamma", "decay", "omega_env", "delta", "coupling", "temperature")
# the [bath] keys each kernel reads; a sweep over another one would change nothing
_KERNEL_KEYS = {"ou": ("gamma", "omega_env", "decay"), "markov": ("decay",),
                "tabulated": ()}
# sign checks of [system] and [bath] keys (an unset key is not checked),
# applied to the sweep values that replace them too
_SIGN = {"omega_m": ("system", "positive"), "coupling": ("system", "nonnegative"),
         "drive": ("system", "nonnegative"), "kappa": ("system", "nonnegative"),
         "decay": ("bath", "nonnegative"), "gamma": ("bath", "positive"),
         "temperature": ("bath", "nonnegative")}


def _sign_ok(word, x):
    return x > 0 if word == "positive" else x >= 0

# (type tag, default); None default means "unset"
_SCHEMA = {
    "system": {
        "omega_m": ("float", "1.0"),
        "delta": ("float", None),
        "coupling": ("float", None),
        "omega_c": ("float", None),
        "g": ("float", None),
        "omega_drive": ("float", None),
        "drive": ("float", None),
        "kappa": ("float", None),
    },
    "bath": {
        "kernel": ("choice:ou,markov,tabulated", "ou"),
        "decay": ("float", "2.0"),
        "gamma": ("float", "1.0"),
        "omega_env": ("float", "0.0"),
        "table": ("str", None),
        "temperature": ("float", "0.0"),
    },
    "grid": {
        "dt": ("float", "0.01"),
        "t_final": ("float", "30.0"),
    },
    "run": {
        "engine": ("choice:moments,fock-master,trajectories", "moments"),
        "paths": ("int", "2000"),
        "dims": ("dims", "10,10"),
        "seed": ("int", "12345"),
        "out": ("str", None),
        "format": ("formats", "csv"),
        "include_f5": ("bool", "true"),
        "store_every": ("int", "0"),
    },
    "sweep": {
        "parameter": ("str", None),
        "values": ("str", None),
        "start": ("float", None),
        "stop": ("float", None),
        "step": ("float", None),
    },
}

# scenario presets layer over the hard defaults; scan lists live below
_PRESETS = {
    "fig2": {("system", "delta"): "1.0", ("system", "coupling"): "0.1",
             ("bath", "gamma"): "0.6", ("bath", "decay"): "2.0",
             ("bath", "omega_env"): "0.0"},
    "fig3": {("system", "delta"): "1.0", ("system", "coupling"): "0.1",
             ("bath", "gamma"): "0.6", ("bath", "decay"): "2.0",
             ("bath", "omega_env"): "0.0"},
    # decay < gamma/2 keeps the coefficient system pole-free across the
    # whole environment-frequency grid, including bath-mirror resonance
    "fig4": {("system", "delta"): "1.0", ("system", "coupling"): "0.1",
             ("bath", "gamma"): "1.0", ("bath", "decay"): "0.4"},
    "fig5": {("system", "coupling"): "0.1", ("bath", "gamma"): "1.5",
             ("bath", "decay"): "4.0", ("bath", "omega_env"): "0.0",
             ("grid", "t_final"): "50.0"},
    "custom": {},
}

_FIG2_LARGE_GAMMA = 50.0
_FIG2_RATIO_T = 15.0
_FIG3_GAMMAS = (0.3, 0.6, 1.2)
_FIG4_OMEGAS = tuple(np.round(np.arange(0.0, 2.0001, 0.1), 10))
_FIG4_SLICE_T = 20.0
_FIG5_GAMMAS = (1.5, 0.8)
_FIG5_DELTAS = tuple(np.round(np.arange(1.0, 3.0001, 0.05), 10))
_ONSET_LEVEL = 0.1
# every sweep point is a full run; a longer range is a typo, not a plan
_MAX_SWEEP_POINTS = 10_000
# the histories of a run's or scan's points must fit the coefficient solve's
# storage budget; each point is counted as 5 coefficient and 14 moment rows
# at 16 bytes a value, which is conservative: the real moment rows of a
# fock-master point take 8, and a moments point keeps no moment rows (En,
# and on a custom run its coefficients and 2 occupations)
_MAX_NODES = _SLAB_BUDGET // (16 * (5 + 14))


def _onset_time(times, en, level=_ONSET_LEVEL):
    """Interpolated first crossing of the entanglement level."""
    above = np.nonzero(en > level)[0]
    if not len(above):
        return float("nan")
    k = above[0]
    if k == 0:
        return float(times[0])
    frac = (level - en[k - 1]) / (en[k] - en[k - 1])
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))

_FLAG_MAP = {
    "out": ("run", "out"),
    "seed": ("run", "seed"),
    "engine": ("run", "engine"),
    "dt": ("grid", "dt"),
    "tfinal": ("grid", "t_final"),
    "gamma": ("bath", "gamma"),
    "omega_env": ("bath", "omega_env"),
    "delta": ("system", "delta"),
    "coupling": ("system", "coupling"),
    "decay": ("bath", "decay"),
    "format": ("run", "format"),
}


@dataclass
class RunConfig:
    """Fully resolved run description.

    Each ``[bath]``, ``[grid]`` and ``[run]`` key is the field of the same
    name.  ``resolved`` keeps (section, key, value-as-text, source) for every
    effective entry so the echo file can show provenance.
    """

    scenario: str
    omega_m: float
    delta: float
    coupling: float
    physical: PhysicalParams
    kernel: str
    decay: float
    gamma: float
    omega_env: float
    table: str
    temperature: float
    dt: float
    t_final: float
    engine: str
    paths: int
    dims: tuple
    seed: int
    out: str
    format: tuple
    include_f5: bool
    store_every: int
    sweep: tuple = None
    resolved: list = field(default_factory=list)
    gamma_source: str = "default"

    def grid(self) -> TimeGrid:
        return TimeGrid(dt=self.dt, t_final=self.t_final)

    def system(self, delta=None, coupling=None) -> LinearizedSystem:
        if self.physical is not None:
            return linearize(self.physical, solve_mean_field(self.physical))
        d = self.delta if delta is None else delta
        c = self.coupling if coupling is None else coupling
        return LinearizedSystem(omega_m=self.omega_m, Delta=d, G=c)

    @functools.cached_property
    def table_kernel(self) -> TabulatedKernel:
        """The kernel of the ``table`` file, read once on first use."""
        return read_kernel_table(self.table)

    def bath_kernel(self, gamma=None, omega_env=None, decay=None):
        g = self.gamma if gamma is None else gamma
        w = self.omega_env if omega_env is None else omega_env
        d = self.decay if decay is None else decay
        if self.kernel == "markov":
            return DeltaKernel(d)
        if self.kernel == "tabulated":
            return self.table_kernel
        return OUKernel(Gamma=d, gamma=g, Omega=w)


def _line_of(text, section, key):
    sec = None
    for i, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if s.startswith("[") and s.endswith("]"):
            sec = s[1:-1].strip().lower()
        elif sec == section and s.split("=", 1)[0].strip().lower() == key:
            return i
    return None


def _convert(section, key, raw, kind):
    path = f"[{section}] {key}"
    try:
        if kind == "float":
            x = float(raw)
            if not math.isfinite(x):
                raise ValueError(raw)
            return x
        if kind == "int":
            return int(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "dims":
            parts = [int(x) for x in raw.split(",")]
            if len(parts) != 2 or min(parts) < 2:
                raise ValueError(raw)
            return tuple(parts)
        if kind == "formats":
            parts = tuple(sorted({x.strip().lower() for x in raw.split(",") if x.strip()}))
            if not parts or any(x not in ("csv", "svg") for x in parts):
                raise ValueError(raw)
            return parts
        if kind.startswith("choice:"):
            allowed = kind.split(":", 1)[1].split(",")
            low = raw.strip().lower()
            if low not in allowed:
                raise ValueError(raw)
            return low
        return raw.strip()
    except ValueError:
        what = "a finite number" if kind == "float" else kind.split(":")[0]
        raise ConfigError(f"{path}: cannot read {raw!r} as {what}") from None


def parse_config(text, scenario="custom", overrides=None) -> RunConfig:
    """Parse sectioned key=value text into a validated RunConfig.

    Unknown sections or keys are rejected with the offending line and a
    close-match suggestion.  ``overrides`` maps flag names (see the CLI)
    to replacement values applied after the file.
    """
    if scenario not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#",), strict=True,
        empty_lines_in_values=False, interpolation=None,
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")

    entries = {}
    for (sec, key), raw in _PRESETS[scenario].items():
        entries[(sec, key)] = (raw, f"preset:{scenario}")
    for sec in parser.sections():
        if sec not in _SCHEMA:
            hint = difflib.get_close_matches(sec, _SCHEMA, n=1)
            extra = f"; did you mean [{hint[0]}]" if hint else ""
            raise ConfigError(f"unknown section [{sec}]{extra}")
        for key, raw in parser.items(sec):
            if key not in _SCHEMA[sec]:
                line = _line_of(text, sec, key)
                hint = difflib.get_close_matches(key, _SCHEMA[sec], n=1)
                extra = f"; did you mean {hint[0]!r}" if hint else ""
                raise ConfigError(
                    f"unknown key {key!r} in [{sec}]"
                    + (f" at line {line}" if line else "") + extra
                )
            entries[(sec, key)] = (raw.strip(), "file")
    for flag, value in (overrides or {}).items():
        if flag not in _FLAG_MAP:
            raise ConfigError(f"unknown override flag {flag!r}")
        entries[_FLAG_MAP[flag]] = (str(value), f"flag:--{flag.replace('_', '-')}")

    resolved = []
    values = {}
    sources = {}
    for sec, keys in _SCHEMA.items():
        for key, (kind, default) in keys.items():
            raw, src = entries.get((sec, key), (default, "default"))
            sources[(sec, key)] = src
            if raw is None:
                values[(sec, key)] = None
                continue
            values[(sec, key)] = _convert(sec, key, raw, kind)
            resolved.append((sec, key, raw, src))

    return _validate(scenario, values, sources, resolved)


def _scan_points(scenario, user_gamma, sweep):
    """Points the scenario marches: its scan lists, or the sweep values."""
    if scenario == "fig3":
        return (1 if user_gamma else len(_FIG3_GAMMAS)) + 1  # plus the Markov point
    if scenario == "fig4":
        return len(_FIG4_OMEGAS)
    if scenario == "fig5":
        return (1 if user_gamma else len(_FIG5_GAMMAS)) * len(_FIG5_DELTAS)
    return len(sweep[1]) if sweep else 1


def _temperatures(temperature, sweep):
    """Bath temperature of each point: a temperature sweep replaces
    [bath] temperature point by point."""
    return sweep[1] if sweep and sweep[0] == "temperature" else (temperature,)


def _f5_unread(scenario, temps):
    """Why no point of a run reads [run] include_f5, or None if one does."""
    if scenario == "fig2":
        return "fig2 always solves F5 for its ratio"
    if min(temps) > 0:
        return "the thermal coefficients have no F5"
    return None


def _validate(scenario, v, src, resolved) -> RunConfig:
    dt, t_final = v[("grid", "dt")], v[("grid", "t_final")]
    if dt <= 0:
        raise ConfigError("[grid] dt must be positive")
    if t_final <= dt:
        raise ConfigError("[grid] t_final must exceed dt")
    # fig2 reads F5/F1 at the node nearest t = 15 (rounded as TimeGrid rounds)
    if scenario == "fig2" and np.rint(_FIG2_RATIO_T / dt) > np.rint(t_final / dt):
        raise ConfigError(f"time {_FIG2_RATIO_T:g} is outside the grid "
                          f"(t_final={np.rint(t_final / dt) * dt:g})")
    for key, (sec, word) in _SIGN.items():
        x = v[(sec, key)]
        if x is not None and not _sign_ok(word, x):
            raise ConfigError(f"[{sec}] {key} must be {word}")
    kernel = v[("bath", "kernel")]
    if kernel == "tabulated" and not v[("bath", "table")]:
        raise ConfigError("[bath] tabulated kernel needs a table path")
    if scenario != "custom" and kernel != "ou":
        raise ConfigError("figure presets scan the memory rate or the environment "
                          "frequency of the ou kernel; they need kernel = ou")
    if v[("run", "paths")] < 1:
        raise ConfigError("[run] paths must be at least 1")
    for key in ("seed", "store_every"):
        if v[("run", key)] < 0:
            raise ConfigError(f"[run] {key} must be nonnegative")

    raw_keys = ("omega_c", "g", "omega_drive", "drive", "kappa")
    raw_given = [k for k in raw_keys if v[("system", k)] is not None]
    physical = None
    if raw_given:
        missing = [k for k in raw_keys if v[("system", k)] is None]
        if missing:
            raise ConfigError(
                f"[system] raw parameters need all of {raw_keys}; missing {missing}"
            )
        if v[("system", "delta")] is not None or v[("system", "coupling")] is not None:
            raise ConfigError(
                "[system] give either delta/coupling or the raw parameter set, not both"
            )
        physical = PhysicalParams(
            omega_c=v[("system", "omega_c")], omega_m=v[("system", "omega_m")],
            g=v[("system", "g")], omega_drive=v[("system", "omega_drive")],
            Omega_d=v[("system", "drive")], kappa_a=v[("system", "kappa")],
        )
    elif scenario in ("custom", "fig2", "fig3", "fig4"):
        if v[("system", "delta")] is None or v[("system", "coupling")] is None:
            raise ConfigError("[system] needs delta and coupling (or the raw set)")
    elif v[("system", "coupling")] is None:
        raise ConfigError("[system] needs coupling")

    sweep = None
    sweep_given = {k: v[("sweep", k)] for k in _SCHEMA["sweep"]
                   if v[("sweep", k)] is not None}
    if sweep_given:
        if scenario != "custom":
            raise ConfigError("[sweep] applies to the custom scenario only")
        param = sweep_given.get("parameter")
        if param not in _SWEEPABLE:
            raise ConfigError(f"[sweep] parameter must be one of {_SWEEPABLE}")
        if "values" in sweep_given:
            if any(k in sweep_given for k in ("start", "stop", "step")):
                raise ConfigError("[sweep] give either values or start/stop/step")
            try:
                pts = tuple(float(x) for x in sweep_given["values"].split(","))
                if not all(map(math.isfinite, pts)):
                    raise ValueError(sweep_given["values"])
            except ValueError:
                raise ConfigError("[sweep] values must be comma-separated finite numbers") from None
        else:
            if not all(k in sweep_given for k in ("start", "stop", "step")):
                raise ConfigError("[sweep] needs values or all of start/stop/step")
            start, stop, step = (sweep_given[k] for k in ("start", "stop", "step"))
            if step <= 0 or stop < start:
                raise ConfigError("[sweep] needs step > 0 and stop >= start")
            if (stop - start) / step > _MAX_SWEEP_POINTS:
                raise ConfigError(f"[sweep] start/stop/step give more than "
                                  f"{_MAX_SWEEP_POINTS} points")
            pts = tuple(np.round(np.arange(start, stop + 0.5 * step, step), 12))
        if not pts:
            raise ConfigError("[sweep] grid is empty")
        if param in _KERNEL_KEYS["ou"] and param not in _KERNEL_KEYS[kernel]:
            raise ConfigError(f"[sweep] {param} does not enter the {kernel} kernel")
        if physical is not None and param in ("delta", "coupling"):
            raise ConfigError(
                f"[sweep] {param} is fixed by the raw [system] parameters"
            )
        if param in _SIGN:
            word = _SIGN[param][1]
            bad = [x for x in pts if not _sign_ok(word, x)]
            if bad:
                raise ConfigError(f"[sweep] {param} values must be {word}; "
                                  f"got {bad[0]:g}")
        sweep = (param, pts)

    points = _scan_points(scenario, _user_set(src[("bath", "gamma")]), sweep)
    if not np.rint(t_final / dt) + 1 <= _MAX_NODES // points:
        held = ("one point's history fits" if points == 1
                else f"the histories of {points} points fit")
        raise ConfigError(f"[grid] t_final / dt = {t_final / dt:g}: too many grid nodes "
                          f"(at most {_MAX_NODES // points}: {held} in "
                          f"{_SLAB_BUDGET / 1e9:g} GB)")
    temps = _temperatures(v[("bath", "temperature")], sweep)
    if max(temps) > 0:
        if scenario != "custom":
            raise ConfigError("figure presets are zero-temperature scenarios")
        if v[("run", "engine")] != "fock-master":
            raise ConfigError(
                "finite temperature runs through the fock-master engine only"
            )
        if kernel != "ou":
            raise ConfigError("finite temperature needs the ou kernel")
        # the thermal quadrature needs a frequency window at every point
        bath = {k: [v[("bath", k)]] for k in ("gamma", "omega_env")}
        if sweep and sweep[0] in bath:
            bath[sweep[0]] = sweep[1]
        for g in bath["gamma"]:
            for w in bath["omega_env"]:
                try:
                    frequency_window(g, w)
                except ValueError as exc:
                    raise ConfigError(f"[bath] omega_env = {w:g} with gamma = "
                                      f"{g:g}: {exc}") from None
    # a key the kernel does not read would change no output; presets and
    # defaults set the ou keys for every kernel, so only user values count
    for key in _KERNEL_KEYS["ou"]:
        if key not in _KERNEL_KEYS[kernel] and _user_set(src[("bath", key)]):
            raise ConfigError(f"[bath] {key} does not enter the {kernel} kernel")
    why = _f5_unread(scenario, temps)
    if why and _user_set(src[("run", "include_f5")]):
        raise ConfigError(f"[run] include_f5 is read by no point of this run: {why}")

    fields = {key: v[(sec, key)] for sec in ("bath", "grid", "run") for key in _SCHEMA[sec]}
    fields["out"] = fields["out"] or os.path.join("runs", scenario)
    return RunConfig(scenario=scenario, omega_m=v[("system", "omega_m")],
                     delta=v[("system", "delta")], coupling=v[("system", "coupling")],
                     physical=physical, sweep=sweep, resolved=resolved,
                     gamma_source=src[("bath", "gamma")], **fields)


# ---------------------------------------------------------------- engines


@dataclass(frozen=True)
class EngineResult:
    """En and the occupations <a^dag a>, <b^dag b> at ``times``; a moments
    scan that writes no occupations leaves them None."""

    times: np.ndarray
    en: np.ndarray
    n_cavity: np.ndarray = None
    n_mirror: np.ndarray = None


def _warn_misfit(eff):
    """Warn when the single-exponential thermal kernels fit their bath poorly."""
    # weight each kernel's relative misfit by its zero-lag strength so a
    # poor fit of a negligible absorption kernel stays quiet
    w1 = abs(eff.alpha1.alpha(0.0))
    w2 = abs(eff.alpha2.alpha(0.0))
    misfit = max(eff.fit_residuals[0] * w1,
                 eff.fit_residuals[1] * w2) / max(w1 + w2, 1e-300)
    if misfit > 0.05:
        warnings.warn(
            f"single-exponential reduction of the thermal kernels misfits "
            f"by {misfit:.1%}; results are approximate for this bath",
            RuntimeWarning, stacklevel=_outside_stacklevel())


def _run_point(cfg: RunConfig, grid, sys, kernel, temperature):
    """(coefficients, EngineResult) of one point on a number-basis engine.

    Above zero temperature the coefficients come from the fitted thermal
    kernel pair and the fock-master engine runs the two-bath equation.
    """
    if temperature > 0:
        eff = effective_kernels(kernel, temperature, fit=True)
        _warn_misfit(eff)
        F = solve_thermal_ocoeff(eff, sys, grid)
    else:
        F = solve_ocoeff(kernel, sys, grid, include_f5=cfg.include_f5)
    ops = build_operators(cfg.dims, sys)
    if cfg.engine == "fock-master":
        rho0 = projector(basis_state(cfg.dims))
        traj = (integrate_thermal_master(F, ops, rho0, grid) if temperature > 0
                else integrate_master(F, ops, rho0, grid))
        return F, EngineResult(grid.times(), traj.en_series(), *occupations(traj.moments))
    se = cfg.store_every or max(1, int(round(0.1 / grid.dt)))
    avg = propagate_ensemble(F, ops, kernel, basis_state(cfg.dims), grid,
                             cfg.paths, cfg.seed, store_every=se)
    rows = np.stack([moments_from_rho(r, ops) for r in avg.rhos])
    # sampling noise can push the estimated covariance slightly outside
    # the physical cone, hence the loose tolerance and nan fallback
    return F, EngineResult(grid.times()[avg.node_indices],
                           symplectic_readout(covariances(rows), tol=1e-6).en,
                           *occupations(rows))


def _scan(cfg: RunConfig, grid, points, keep=False):
    """(coefficients, EngineResult) of each (system, kernel, temperature) point.

    On the moments engine the points march together, a single point as a
    batch of one: the exponential-kernel points in one closed coefficient
    march, whose node blocks stream into one moment march of all the
    points (the others get their own solve first, cut into the same
    blocks by :func:`_widened`), read out block by block by
    :class:`moments.EnReadout`; a physicality dip is reported once.
    Without ``keep`` no point keeps more than its En, and the
    coefficients come back None.  With it each point keeps its
    coefficients and occupations, which a custom run writes: the closed
    march's blocks are also written into one array as they pass, and
    each exponential point's series is a view of it.  The number-basis
    engines go point by point through :func:`_run_point`.
    """
    if cfg.engine != "moments":
        return [_run_point(cfg, grid, *point) for point in points]
    systems = [s for s, _, _ in points]
    ou = [i for i, (_, k, _) in enumerate(points) if isinstance(k, OUKernel)]
    closed = None
    if ou:  # an empty closed march would still take every step
        closed = ou_closed_blocks([points[i][1] for i in ou], [systems[i] for i in ou],
                                  grid, cfg.include_f5)
    try:
        series = [None if i in ou else solve_ocoeff(k, s, grid, include_f5=cfg.include_f5)
                  for i, (s, k, _) in enumerate(points)]
    except NumericalFailure:
        for _ in closed or ():  # as in a whole solve, the closed march fails first
            pass
        raise
    blocks = closed
    if keep and ou:
        kept = np.empty((grid.n_points, 5 if cfg.include_f5 else 4, len(ou)), complex)
        blocks = _kept(closed, kept)
    if len(ou) < len(points):
        blocks = _widened(blocks, ou, series, grid.n_points)
    readout = EnReadout(grid.n_points, len(points), occupations=keep)
    integrate_moments(blocks, systems, vacuum(), grid, sink=readout)
    en = readout.finish()
    if keep and ou:
        rows = np.moveaxis(kept, 1, 0)
        joined = OCoefficientSeries(grid, *rows[:4], F5=rows[4] if cfg.include_f5 else None,
                                    provenance="closed-ou")
        for j, i in enumerate(ou):
            series[i] = joined.point(j)
    occ = readout.occupations or ()
    return [(F if keep else None, EngineResult(grid.times(), en[:, p], *(o[:, p] for o in occ)))
            for p, F in enumerate(series)]


def _kept(blocks, out):
    """The node blocks, passed on as they come, each also written into
    ``out`` at its nodes."""
    k0 = 0
    for b in blocks:
        out[k0:k0 + len(b)] = b
        k0 += len(b)
        yield b


def _widened(blocks, ou, series, n):
    """Closed-march node blocks widened to every point: (nodes, 4, points)
    of F1..F4, where point ``ou[j]`` is column j of a block and every
    point with a series (not None) in ``series`` reads its own.  With no
    exponential point ``blocks`` is None, and the ``n`` nodes of the
    series are cut into blocks of ``stepping._BLOCK``."""
    if blocks is None:
        blocks = (np.empty((min(_BLOCK, n - k0), 4, 0)) for k0 in range(0, n, _BLOCK))
    k0 = 0
    for b in blocks:
        k1 = k0 + len(b)
        out = np.empty((k1 - k0, 4, len(series)), dtype=complex)
        out[:, :, ou] = b[:, :4]
        for i, F in enumerate(series):
            if F is not None:
                out[:, :, i] = np.stack([F.F1[k0:k1], F.F2[k0:k1], F.F3[k0:k1],
                                         F.F4[k0:k1]], axis=1)
        yield out
        k0 = k1


# ----------------------------------------------------------------- output


# rows of a CSV file turned into Python floats at a time
_CSV_CHUNK = 1024


def _write_csv(path: Path, names, cols):
    """CSV of the header ``names`` and one row per node of the equal-length
    columns ``cols``, each value as a float in 17 significant digits
    (-0.0 as 0), one format operation per chunk of rows."""
    cols = [np.asarray(c) for c in cols]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(cols[0]), _CSV_CHUNK):
            chunk = np.column_stack([c[lo:lo + _CSV_CHUNK] for c in cols]) + 0.0
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _num_tag(x):
    return f"{float(x):g}".replace("-", "m").replace(".", "p")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_HEAT_STOPS = (
    (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
)


def _heat_colors(u):
    """The colors of the values ``u`` (0 to 1, clipped) on the heat scale,
    as 24-bit integers: the stops interpolated linearly, each channel
    rounded half to even."""
    stops = np.array(_HEAT_STOPS)
    pos = np.clip(u, 0.0, 1.0) * (len(stops) - 1)
    i = np.minimum(pos.astype(int), len(stops) - 2)
    f = (pos - i)[..., None]
    rgb = np.rint(255 * (stops[i] + f * (stops[i + 1] - stops[i]))).astype(int)
    return (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]


def _ticks(lo, hi, n=5):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    start = math.ceil(lo / step) * step
    return list(np.arange(start, hi + 0.5 * step, step))


def _svg_open(width, height, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]


def _svg_axes(parts, x0, y0, x1, y1, xlo, xhi, ylo, yhi, xlabel, ylabel):
    parts.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" '
                 f'height="{y0 - y1}" fill="none" stroke="black"/>')
    for tx in _ticks(xlo, xhi):
        px = x0 + (tx - xlo) / (xhi - xlo) * (x1 - x0)
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" '
                     f'y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{y0 + 17}" '
                     f'text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(ylo, yhi):
        py = y0 - (ty - ylo) / (yhi - ylo) * (y0 - y1)
        parts.append(f'<line x1="{x0 - 4}" y1="{py:.1f}" x2="{x0}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 7}" y="{py + 4:.1f}" '
                     f'text-anchor="end">{ty:g}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{y0 + 34}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">{ylabel}</text>')


def _write_svg_lines(path: Path, x, series, title, xlabel, ylabel):
    w, h = 720, 440
    x0, y0, x1, y1 = 70, h - 50, w - 20, 40
    finite = [np.asarray(ys)[np.isfinite(ys)] for _, ys in series]
    allv = np.concatenate([f for f in finite if len(f)] or [np.zeros(1)])
    ylo = float(min(0.0, allv.min()))
    yhi = float(allv.max())
    if yhi <= ylo:
        yhi = ylo + 1.0
    yhi += 0.05 * (yhi - ylo)
    xlo, xhi = float(x[0]), float(x[-1])
    parts = _svg_open(w, h, title)
    _svg_axes(parts, x0, y0, x1, y1, xlo, xhi, ylo, yhi, xlabel, ylabel)
    for i, (label, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = []
        segs = []
        for xv, yv in zip(x, ys):
            if not math.isfinite(yv):
                if pts:
                    segs.append(pts)
                pts = []
                continue
            px = x0 + (xv - xlo) / (xhi - xlo) * (x1 - x0)
            py = y0 - (yv - ylo) / (yhi - ylo) * (y0 - y1)
            pts.append(f"{px:.2f},{py:.2f}")
        if pts:
            segs.append(pts)
        for seg in segs:
            parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = y1 + 14 + 16 * i
        parts.append(f'<line x1="{x1 - 150}" y1="{ly - 4}" x2="{x1 - 125}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x1 - 120}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")


def _write_svg_heat(path: Path, xvals, yvals, Z, title, xlabel, ylabel):
    w, h = 720, 480
    x0, y0, x1, y1 = 70, h - 50, w - 20, 40
    Z = np.asarray(Z, dtype=float)
    stride = max(1, Z.shape[0] // 200)
    Zs = Z[::stride]
    ys = np.asarray(yvals)[::stride]
    lo = float(np.nanmin(Zs))
    hi = float(np.nanmax(Zs))
    if hi <= lo:
        hi = lo + 1.0
    parts = _svg_open(w, h, title)
    cw = (x1 - x0) / Zs.shape[1]
    ch = (y0 - y1) / Zs.shape[0]
    xs = [f"{x0 + c * cw:.2f}" for c in range(Zs.shape[1])]
    size = f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}"'
    for r, colors in enumerate(_heat_colors((Zs - lo) / (hi - lo)).tolist()):
        py = f"{y0 - (r + 1) * ch:.2f}"
        parts.extend(f'<rect x="{x}" y="{py}" {size} fill="#{color:06x}"/>'
                     for x, color in zip(xs, colors))
    _svg_axes(parts, x0, y0, x1, y1, float(xvals[0]), float(xvals[-1]),
              float(ys[0]), float(ys[-1]), xlabel, ylabel)
    parts.append(f'<text x="{x1 - 4}" y="{y1 - 6}" text-anchor="end">'
                 f'range [{lo:.3g}, {hi:.3g}]</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")


def _coefficient_rows(coefficients):
    """(label, complex series) of each coefficient, F1..F5 or X11..X24."""
    if isinstance(coefficients, OCoefficientSeries):
        F = coefficients
        return [(f"f{j}", s) for j, s in enumerate((F.F1, F.F2, F.F3, F.F4, F.F5), start=1)
                if s is not None]
    return [(f"x{i}{j}", coefficients.series(i, j)) for i in (1, 2) for j in range(1, 5)]


def _write_series(path: Path, times, rows):
    """CSV of t, then <label>_re and <label>_im of each (label, series) row."""
    names = ["t"] + [f"{label}_{part}" for label, _ in rows for part in ("re", "im")]
    _write_csv(path, names, [times] + [c for _, s in rows for c in (s.real, s.imag)])


def _write_en_grid(path: Path, labels, results):
    """CSV of t, then en_<label> of each scan result; returns (times, En columns)."""
    times = results[0].times
    en = [r.en for r in results]
    _write_csv(path, ["t"] + [f"en_{label}" for label in labels], [times] + en)
    return times, en


# -------------------------------------------------------------- scenarios


def _scenario_fig2(cfg, outdir, manifest):
    grid = cfg.grid()
    sys_ = cfg.system()
    files = []
    ratios = {}
    k15 = int(round(_FIG2_RATIO_T / grid.dt))  # on the grid: see _validate
    for gamma in (cfg.gamma, _FIG2_LARGE_GAMMA):
        kspec = cfg.bath_kernel(gamma=gamma)
        F = solve_ocoeff(kspec, sys_, grid, include_f5=True)
        rows = _coefficient_rows(F)
        name = f"fig2_gamma{_num_tag(gamma)}.csv"
        _write_series(outdir / name, grid.times(), rows)
        files.append(name)
        denom = abs(F.F1[k15])
        ratios[f"{gamma:g}"] = float(abs(F.F5[k15]) / denom) if denom else float("nan")
        if "svg" in cfg.format:
            sname = name.replace(".csv", ".svg")
            series = [(f"|{label.upper()}|", np.abs(s)) for label, s in rows]
            _write_svg_lines(outdir / sname, grid.times(), series,
                             f"coefficient magnitudes, memory rate {gamma:g}",
                             "t", "|F_j|")
            files.append(sname)
    manifest["metrics"]["f5_over_f1_at_t15"] = ratios
    manifest["assumptions"].append(
        "detuning/coupling/decay values reuse the entanglement scenario set"
    )
    return files


def _user_set(source):
    return source == "file" or source.startswith("flag")


def _scenario_fig3(cfg, outdir, manifest):
    grid = cfg.grid()
    sys_ = cfg.system()
    gammas = [cfg.gamma] if _user_set(cfg.gamma_source) else list(_FIG3_GAMMAS)
    jobs = gammas + [None]
    points = [(sys_, DeltaKernel(cfg.decay) if gamma is None
               else cfg.bath_kernel(gamma=gamma), 0.0) for gamma in jobs]
    labels = ["markov" if gamma is None else f"gamma{_num_tag(gamma)}" for gamma in jobs]
    name = "fig3_en.csv"
    times, en = _write_en_grid(outdir / name, labels,
                               [res for _, res in _scan(cfg, grid, points)])
    series = list(zip(labels, en))
    onsets = {label: _onset_time(times, e) for label, e in series}
    final = {label: float(e[-1]) for label, e in series}
    files = [name]
    if "svg" in cfg.format:
        _write_svg_lines(outdir / "fig3_en.svg", times, series,
                         "entanglement growth by bath memory", "t", "En")
        files.append("fig3_en.svg")
    manifest["metrics"]["onset_time"] = onsets
    manifest["metrics"]["en_final"] = final
    manifest["assumptions"].append(
        "memory-rate list is a scenario default (not fixed by the source figure)"
    )
    manifest["assumptions"].append(
        f"onset time is the interpolated first crossing of En = {_ONSET_LEVEL:g}"
    )
    return files


def _scenario_fig4(cfg, outdir, manifest):
    grid = cfg.grid()
    sys_ = cfg.system()
    omegas = list(_FIG4_OMEGAS)
    points = [(sys_, cfg.bath_kernel(omega_env=omega), 0.0) for omega in omegas]
    name = "fig4_en_grid.csv"
    times, en = _write_en_grid(outdir / name, [f"omega{_num_tag(w)}" for w in omegas],
                               [res for _, res in _scan(cfg, grid, points)])
    files = [name]

    kslice = int(np.argmin(np.abs(times - _FIG4_SLICE_T)))
    slice_en = np.array([e[kslice] for e in en])
    _write_csv(outdir / "fig4_slice_t20.csv", ["omega_env", "en_at_t20"],
               [np.asarray(omegas), slice_en])
    files.append("fig4_slice_t20.csv")
    if "svg" in cfg.format:
        _write_svg_heat(outdir / "fig4_en_heat.svg", omegas, times, np.stack(en, axis=1),
                        "entanglement vs environment frequency",
                        "environment frequency", "t")
        _write_svg_lines(outdir / "fig4_slice_t20.svg", np.asarray(omegas),
                         [("t=20", slice_en)],
                         "entanglement slice at t=20",
                         "environment frequency", "En")
        files += ["fig4_en_heat.svg", "fig4_slice_t20.svg"]
    manifest["metrics"]["en_at_t20"] = {f"{w:g}": float(e)
                                        for w, e in zip(omegas, slice_en)}
    manifest["assumptions"].append(
        "environment-frequency range [0, 2] and decay 0.4 are scenario defaults"
    )
    t_slice = float(times[kslice])
    if abs(t_slice - _FIG4_SLICE_T) > grid.dt / 2:
        manifest["assumptions"].append(
            f"the grid ends before t = {_FIG4_SLICE_T:g}: the slice and en_at_t20 "
            f"hold En at its last node, t = {t_slice:g}"
        )
    return files


def _scenario_fig5(cfg, outdir, manifest):
    grid = cfg.grid()
    gammas = [cfg.gamma] if _user_set(cfg.gamma_source) else list(_FIG5_GAMMAS)
    deltas = list(_FIG5_DELTAS)
    files = []
    argmax = {}
    kernels = [cfg.bath_kernel(gamma=gamma) for gamma in gammas]
    points = [(cfg.system(delta=delta), kspec, 0.0)
              for kspec in kernels for delta in deltas]
    scan = [res for _, res in _scan(cfg, grid, points)]
    for i, gamma in enumerate(gammas):
        tag = f"gamma{_num_tag(gamma)}"
        name = f"fig5_en_grid_{tag}.csv"
        times, en = _write_en_grid(outdir / name, [f"delta{_num_tag(d)}" for d in deltas],
                                   scan[i * len(deltas):(i + 1) * len(deltas)])
        files.append(name)
        best = np.array([float(np.nanmax(e)) for e in en])
        _write_csv(outdir / f"fig5_max_{tag}.csv", ["delta", "en_max"],
                   [np.asarray(deltas), best])
        files.append(f"fig5_max_{tag}.csv")
        argmax[f"{gamma:g}"] = float(deltas[int(np.argmax(best))])
        if "svg" in cfg.format:
            _write_svg_heat(outdir / f"fig5_en_heat_{tag}.svg", deltas, times,
                            np.stack(en, axis=1),
                            f"entanglement vs detuning, memory rate {gamma:g}",
                            "detuning", "t")
            _write_svg_lines(outdir / f"fig5_max_{tag}.svg", np.asarray(deltas),
                             [(f"memory rate {gamma:g}", best)],
                             "peak entanglement vs detuning", "detuning",
                             "max En")
            files += [f"fig5_en_heat_{tag}.svg", f"fig5_max_{tag}.svg"]
    manifest["metrics"]["argmax_delta"] = argmax
    return files


def _custom_point(cfg, delta=None, coupling=None, gamma=None, omega_env=None,
                  decay=None, temperature=None):
    """(system, kernel, temperature) of a custom run or one sweep point."""
    T = cfg.temperature if temperature is None else temperature
    return (cfg.system(delta=delta, coupling=coupling),
            cfg.bath_kernel(gamma=gamma, omega_env=omega_env, decay=decay), T)


def _write_custom(cfg, outdir, manifest, coefficients, res):
    name = ("coefficients.csv" if isinstance(coefficients, OCoefficientSeries)
            else "thermal_coefficients.csv")
    _write_series(outdir / name, coefficients.grid.times(), _coefficient_rows(coefficients))
    files = [name]
    n_cav, n_mec = res.n_cavity, res.n_mirror
    _write_csv(outdir / "timeseries.csv",
               ["t", "en", "n_cavity", "n_mirror"],
               [res.times, res.en, n_cav, n_mec])
    files.append("timeseries.csv")
    if "svg" in cfg.format:
        _write_svg_lines(outdir / "timeseries.svg", res.times,
                         [("En", res.en), ("n_cavity", n_cav),
                          ("n_mirror", n_mec)],
                         "custom run", "t", "value")
        files.append("timeseries.svg")
    manifest["metrics"]["en_final"] = float(res.en[-1])
    manifest["metrics"]["en_max"] = float(np.nanmax(res.en))
    return files


def _scenario_custom(cfg, outdir, manifest):
    if cfg.sweep is None:
        ((coefficients, res),) = _scan(cfg, cfg.grid(), [_custom_point(cfg)], keep=True)
        return _write_custom(cfg, outdir, manifest, coefficients, res)
    param, pts = cfg.sweep
    runs = _scan(cfg, cfg.grid(), [_custom_point(cfg, **{param: v}) for v in pts], keep=True)
    index = []
    for i, (value, (coefficients, res)) in enumerate(zip(pts, runs)):
        sub = outdir / f"run_{i:03d}_{param}_{_num_tag(value)}"
        sub.mkdir(parents=True, exist_ok=True)
        sub_manifest = {"metrics": {}, "assumptions": []}
        files = _write_custom(cfg, sub, sub_manifest, coefficients, res)
        (sub / "point.json").write_text(
            json.dumps({"parameter": param, "value": value,
                        "metrics": sub_manifest["metrics"],
                        "outputs": files}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        index.append({"dir": sub.name, "parameter": param, "value": float(value),
                      "en_final": sub_manifest["metrics"]["en_final"],
                      "en_max": sub_manifest["metrics"]["en_max"]})
    manifest["sweep"] = {"parameter": param,
                         "values": [float(v) for v in pts],
                         "points": index}
    return [entry["dir"] for entry in index]


def _echo_text(cfg: RunConfig):
    # read back as file values, these lines would change the run or be
    # rejected, so they are echoed as comments: a preset gamma would narrow
    # the memory-rate scan of fig3 and fig5, and a [bath] key the kernel
    # does not read, or include_f5 where no point reads it, is an error
    unused = {("bath", key): f"the {cfg.kernel} kernel does not read it"
              for key in _KERNEL_KEYS["ou"] if key not in _KERNEL_KEYS[cfg.kernel]}
    if cfg.scenario in ("fig3", "fig5") and not _user_set(cfg.gamma_source):
        unused[("bath", "gamma")] = "the scenario scans its own memory rates"
    if why := _f5_unread(cfg.scenario, _temperatures(cfg.temperature, cfg.sweep)):
        unused[("run", "include_f5")] = why
    lines = [f"# resolved configuration, scenario {cfg.scenario}"]
    current = None
    for sec, key, raw, source in cfg.resolved:
        if sec != current:
            lines.append("")
            lines.append(f"[{sec}]")
            current = sec
        if (sec, key) in unused:
            lines.append(f"# {key} = {raw}  # {source}; unused: {unused[sec, key]}")
            continue
        lines.append(f"{key} = {raw}  # {source}")
    return "\n".join(lines) + "\n"


def run_scenario(cfg: RunConfig) -> dict:
    """Execute one scenario and write its artifact files.

    Returns the manifest that was written to the output directory."""
    outdir = Path(cfg.out)
    cfg.bath_kernel()  # a bad kernel table is a config error before any output
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "scenario": cfg.scenario,
        "engine": cfg.engine,
        "seed": cfg.seed,
        "grid": {"dt": cfg.dt, "t_final": cfg.t_final},
        "metrics": {},
        "assumptions": [],
    }
    runner = {
        "fig2": _scenario_fig2,
        "fig3": _scenario_fig3,
        "fig4": _scenario_fig4,
        "fig5": _scenario_fig5,
        "custom": _scenario_custom,
    }[cfg.scenario]
    files = runner(cfg, outdir, manifest)
    (outdir / "resolved.cfg").write_text(_echo_text(cfg), encoding="utf-8")
    manifest["outputs"] = files + ["resolved.cfg"]
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nmoptomech",
        description="cavity-mirror entanglement under a memory-carrying bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario from a config file")
    run.add_argument("--scenario", required=True, choices=_SCENARIOS)
    run.add_argument("--config", required=True, help="path to config file")
    # value flags stay text: parse_config types and checks them as file values
    for flag, (sec, key) in _FLAG_MAP.items():
        kind = _SCHEMA[sec][key][0]
        metavar = "{%s}" % kind.split(":", 1)[1] if kind.startswith("choice:") else None
        run.add_argument("--" + flag.replace("_", "-"), dest=flag, metavar=metavar)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    overrides = {flag: getattr(args, flag) for flag in _FLAG_MAP
                 if getattr(args, flag) is not None}
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        cfg = parse_config(text, scenario=args.scenario, overrides=overrides)
        manifest = run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    metrics = json.dumps(manifest["metrics"], sort_keys=True)
    print(f"{cfg.scenario}: wrote {len(manifest['outputs'])} files to "
          f"{cfg.out}; metrics {metrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
