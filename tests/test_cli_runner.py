"""Config grammar, provenance, determinism, and exit codes of the
command line front end."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmoptomech.cli_runner import (_CSV_CHUNK, _SCENARIOS, _SCHEMA, RunConfig, _custom_point,
                                   _heat_colors, _onset_time, _write_csv, _write_svg_heat,
                                   main, parse_config)
from nmoptomech.errors import ConfigError, NumericalFailure
from nmoptomech.ocoeff import _SLAB_BUDGET
from oracles import _fmt, _heat_color

MINIMAL = """\
[system]
delta = 1.0
coupling = 0.1
[bath]
kernel = ou
decay = 2.0
gamma = 0.6
"""


def entry(cfg: RunConfig, section, key):
    for sec, k, val, src in cfg.resolved:
        if (sec, k) == (section, key):
            return val, src
    raise KeyError((section, key))


def test_defaults_and_provenance():
    cfg = parse_config(MINIMAL)
    assert cfg.gamma == 0.6
    assert cfg.dt == 0.01
    assert cfg.t_final == 30.0
    assert cfg.engine == "moments"
    assert cfg.dims == (10, 10)
    assert entry(cfg, "bath", "gamma")[1] == "file"
    assert entry(cfg, "grid", "dt")[1] == "default"
    assert cfg.gamma_source == "file"


def test_flag_overrides_beat_file():
    cfg = parse_config(MINIMAL, overrides={"gamma": "1.3", "dt": "0.02"})
    assert cfg.gamma == 1.3
    assert cfg.dt == 0.02
    assert entry(cfg, "bath", "gamma")[1] == "flag:--gamma"
    assert entry(cfg, "grid", "dt")[1] == "flag:--dt"


def test_scenario_presets_fill_in():
    cfg = parse_config("", scenario="fig4")
    assert cfg.decay == 0.4
    assert cfg.gamma == 1.0
    assert entry(cfg, "bath", "decay")[1] == "preset:fig4"
    assert cfg.gamma_source == "preset:fig4"


def test_unknown_key_reports_line_and_suggestion():
    with pytest.raises(ConfigError) as info:
        parse_config("[bath]\ngama = 0.5\n")
    msg = str(info.value)
    assert "gama" in msg and "line 2" in msg and "gamma" in msg


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[baths]\ngamma = 0.5\n")
    assert "baths" in str(info.value)
    # configparser would spread [DEFAULT] keys over every section, or drop
    # them when no other section is given
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        parse_config("[DEFAULT]\nt_final = 3\n", scenario="fig2")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError) as info:
        parse_config("[bath]\ngamma = fast\n")
    assert "gamma" in str(info.value)
    with pytest.raises(ConfigError):
        parse_config("[run]\ndims = 8\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nengine = euler\n")


def test_validation_catches_bad_grid_and_bath():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[grid]\ndt = 0\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[grid]\nt_final = 0.001\n")
    with pytest.raises(ConfigError):
        parse_config("[bath]\nkernel = ou\ndecay = -1\ngamma = 0.5\n")


def test_raw_cavity_parameters_all_or_none():
    raw = """\
[system]
omega_c = 5.0
g = 0.02
omega_drive = 4.9
drive = 1.0
kappa = 0.1
"""
    cfg = parse_config(raw)
    assert cfg.physical is not None
    sysl = cfg.system()
    assert sysl.G > 0
    with pytest.raises(ConfigError):
        parse_config("[system]\nomega_c = 5.0\ng = 0.02\n")
    # the raw set fixes delta and coupling, so nothing may scan them
    for param in ("delta", "coupling"):
        with pytest.raises(ConfigError, match=param):
            parse_config(raw + f"[sweep]\nparameter = {param}\nvalues = 0.5, 1\n")


def test_sweep_parsing_and_restrictions():
    cfg = parse_config(MINIMAL + "[sweep]\nparameter = gamma\nvalues = 0.3, 0.6, 1.2\n")
    assert cfg.sweep == ("gamma", (0.3, 0.6, 1.2))
    cfg = parse_config(MINIMAL + "[sweep]\nparameter = delta\nstart = 1\nstop = 2\nstep = 0.5\n")
    assert cfg.sweep[0] == "delta"
    assert np.allclose(cfg.sweep[1], [1.0, 1.5, 2.0])
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[sweep]\nparameter = seed\nvalues = 1, 2\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[sweep]\nparameter = gamma\nvalues = 0.3\n",
                     scenario="fig2")
    # sweep values pass the checks of the [bath] key they replace
    for param, values in (("gamma", "0.3, 0"), ("gamma", "-1"),
                          ("decay", "1, -0.5"), ("temperature", "-0.1")):
        with pytest.raises(ConfigError, match=f"{param} values"):
            parse_config(MINIMAL + f"[sweep]\nparameter = {param}\n"
                         f"values = {values}\n")


def test_temperature_needs_master_engine_and_ou():
    good = """\
[system]
delta = 1.0
coupling = 0.1
[bath]
kernel = ou
decay = 2.0
gamma = 0.6
temperature = 0.5
[run]
engine = fock-master
"""
    cfg = parse_config(good)
    assert cfg.temperature == 0.5
    with pytest.raises(ConfigError):
        parse_config(good.replace("engine = fock-master", "engine = moments"))
    with pytest.raises(ConfigError):
        parse_config(good, scenario="fig2")
    # a temperature sweep is held to the same rules point by point
    sweep = "[sweep]\nparameter = temperature\nvalues = 0, 0.1\n"
    cold = good.replace("temperature = 0.5", "temperature = 0.0")
    assert parse_config(cold + sweep).sweep == ("temperature", (0.0, 0.1))
    with pytest.raises(ConfigError, match="fock-master"):
        parse_config(cold.replace("engine = fock-master", "engine = moments")
                     + sweep)
    with pytest.raises(ConfigError, match="ou kernel"):
        parse_config(cold.replace("kernel = ou", "kernel = markov") + sweep)


def test_onset_time_interpolates():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    en = np.array([0.0, 0.05, 0.15, 0.3])
    # crosses 0.1 midway between t=1 and t=2
    assert _onset_time(t, en, 0.1) == pytest.approx(1.5)
    assert math.isnan(_onset_time(t, en, 0.5))


def test_run_is_byte_identical(tmp_path):
    cfg_text = """\
[system]
delta = 1.0
coupling = 0.1
[bath]
kernel = ou
decay = 2.0
gamma = 0.6
[grid]
dt = 0.02
t_final = 2.0
"""
    p = tmp_path / "c.cfg"
    p.write_text(cfg_text)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        rc = main(["run", "--scenario", "custom", "--config", str(p),
                   "--out", str(out)])
        assert rc == 0
        outs.append(out)
    # across distinct out dirs only the echoed out path may differ
    for fname in ("timeseries.csv", "coefficients.csv", "manifest.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, fname
    # rerunning into the same directory reproduces every byte
    before = {f.name: f.read_bytes() for f in outs[0].iterdir()}
    assert main(["run", "--scenario", "custom", "--config", str(p),
                 "--out", str(outs[0])]) == 0
    after = {f.name: f.read_bytes() for f in outs[0].iterdir()}
    assert before == after


def test_csv_round_trips_metric_exactly(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + "[grid]\ndt = 0.02\nt_final = 2.0\n")
    out = tmp_path / "o"
    assert main(["run", "--scenario", "custom", "--config", str(p),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rows = (out / "timeseries.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    last = rows[-1].split(",")
    en_csv = float(last[header.index("en")])
    assert en_csv == manifest["metrics"]["en_final"]


def test_resolved_echo_lists_sources(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + "[grid]\ndt = 0.02\nt_final = 1.0\n")
    out = tmp_path / "o"
    main(["run", "--scenario", "custom", "--config", str(p), "--out", str(out),
          "--gamma", "0.9"])
    echo = (out / "resolved.cfg").read_text()
    assert "# flag:--gamma" in echo
    assert "# file" in echo
    assert "# default" in echo


def test_sweep_writes_indexed_subruns(tmp_path):
    cfg_text = MINIMAL + """\
[grid]
dt = 0.02
t_final = 1.0
[sweep]
parameter = gamma
values = 0.5, 1.0
"""
    p = tmp_path / "c.cfg"
    p.write_text(cfg_text)
    out = tmp_path / "o"
    assert main(["run", "--scenario", "custom", "--config", str(p),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["sweep"]["points"]) == 2
    sub = out / manifest["sweep"]["points"][0]["dir"]
    assert (sub / "timeseries.csv").exists()
    assert (sub / "point.json").exists()
    # the swept memory rate reaches the finite-temperature path as well
    p.write_text(cfg_text.replace("gamma = 0.6", "gamma = 0.6\ntemperature = 0.1")
                 + "[run]\nengine = fock-master\ndims = 4,4\n")
    hot = tmp_path / "hot"
    assert main(["run", "--scenario", "custom", "--config", str(p),
                 "--out", str(hot), "--tfinal", "0.5"]) == 0
    runs = [hot / pt["dir"] / "thermal_coefficients.csv" for pt in
            json.loads((hot / "manifest.json").read_text())["sweep"]["points"]]
    assert runs[0].read_text() != runs[1].read_text()


@pytest.mark.parametrize("scenario, text, flags", [
    ("fig2", "", ["--tfinal", "15"]),
    ("fig3", "", ["--tfinal", "2"]),
    ("fig3", "", ["--tfinal", "2", "--gamma", "0.9"]),
    ("fig4", "", ["--tfinal", "1"]),
    ("fig5", "", ["--tfinal", "1", "--dt", "0.02"]),
    ("custom", MINIMAL + "[grid]\ndt = 0.02\nt_final = 1.0\n[sweep]\n"
     "parameter = gamma\nstart = 0.5\nstop = 1.5\nstep = 0.5\n", []),
    ("custom", MINIMAL + "temperature = 0.1\n[run]\nengine = fock-master\ndims = 3,3\n",
     ["--tfinal", "0.2"]),
    ("custom", MINIMAL.replace("kernel = ou", "kernel = markov").replace("gamma = 0.6\n", ""),
     ["--tfinal", "0.2"]),
], ids=["fig2", "fig3", "fig3-gamma", "fig4", "fig5", "custom-sweep", "thermal", "markov"])
def test_resolved_config_reproduces_every_csv(tmp_path, scenario, text, flags):
    p = tmp_path / "c.cfg"
    p.write_text(text)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--scenario", scenario, "--config", str(p),
                 "--out", str(first), *flags]) == 0
    # feed the echo back with only the output directory changed
    echo = [f"out = {second}" if line.startswith("out = ") else line
            for line in (first / "resolved.cfg").read_text().splitlines()]
    p.write_text("\n".join(echo) + "\n")
    assert main(["run", "--scenario", scenario, "--config", str(p)]) == 0
    csvs = sorted(f.relative_to(first) for f in first.rglob("*.csv"))
    assert csvs == sorted(f.relative_to(second) for f in second.rglob("*.csv"))
    for name in csvs:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_misfit_warning_names_the_caller(tmp_path):
    # the fitted thermal kernels of this bath misfit; the warning's
    # location is the caller of main, not the package
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + "temperature = 0.1\n[run]\nengine = fock-master\ndims = 3,3\n")
    with pytest.warns(RuntimeWarning, match="misfits") as caught:
        assert main(["run", "--scenario", "custom", "--config", str(p),
                     "--out", str(tmp_path / "o"), "--tfinal", "0.2"]) == 0
    assert [w.filename for w in caught if "misfits" in str(w.message)] == [__file__]


def test_gamma_flag_narrows_multi_gamma_scenario(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("")
    out1 = tmp_path / "all"
    assert main(["run", "--scenario", "fig3", "--config", str(p),
                 "--out", str(out1), "--tfinal", "2.0"]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    out2 = tmp_path / "one"
    assert main(["run", "--scenario", "fig3", "--config", str(p),
                 "--out", str(out2), "--tfinal", "2.0", "--gamma", "0.6"]) == 0
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert len(m1["metrics"]["en_final"]) == 4  # three memory rates plus
    assert len(m2["metrics"]["en_final"]) == 2  # the memoryless reference


def test_exit_code_two_on_config_error(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("[bath]\ngama = 1\n")
    rc = main(["run", "--scenario", "custom", "--config", str(p),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    # a flag value is read like a file value
    p.write_text(MINIMAL)
    rc = main(["run", "--scenario", "custom", "--config", str(p),
               "--out", str(tmp_path / "o"), "--dt", "abc"])
    assert rc == 2
    assert ("config error: [grid] dt: cannot read 'abc' as a finite number"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()
    # a node count t_final / dt that no grid can hold
    for dt, ratio in (("5e-324", "inf"), ("1e-300", "1e+300")):
        rc = main(["run", "--scenario", "custom", "--config", str(p),
                   "--out", str(tmp_path / "o"), "--dt", dt, "--tfinal", "1"])
        assert rc == 2
        assert (f"config error: [grid] t_final / dt = {ratio}: too many grid nodes"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()



def test_grid_over_the_storage_budget_is_config_error(tmp_path, capsys):
    # one point keeps 5 coefficient and 14 moment rows of 16-byte values
    # per node; the last node count inside the budget still parses
    most = _SLAB_BUDGET // (16 * (5 + 14))
    cfg = parse_config(MINIMAL + f"[grid]\ndt = 1.0\nt_final = {most - 1}\n")
    assert cfg.t_final == most - 1
    with pytest.raises(ConfigError, match=f"too many grid nodes \\(at most {most}:"):
        parse_config(MINIMAL + f"[grid]\ndt = 1.0\nt_final = {most}\n")
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL)
    rc = main(["run", "--scenario", "custom", "--config", str(p),
               "--out", str(tmp_path / "o"), "--dt", "1e-12", "--tfinal", "1"])
    assert rc == 2
    assert ("config error: [grid] t_final / dt = 1e+12: too many grid nodes (at most "
            f"{most}: one point's history fits in {_SLAB_BUDGET / 1e9:g} GB)"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, text, points", [
    ("fig3", "", 4), ("fig3", "[bath]\ngamma = 0.5\n", 2), ("fig4", "", 21),
    ("fig5", "", 82), ("custom", MINIMAL + "[sweep]\nparameter = gamma\nvalues = 0.3, 0.6\n", 2)])
def test_scan_over_the_storage_budget_is_config_error(tmp_path, capsys, scenario, text,
                                                      points):
    # a scan keeps every point's history, so the node bound is divided by
    # the point count; the last node count inside it still parses
    most = _SLAB_BUDGET // (16 * (5 + 14)) // points
    cfg = parse_config(text + f"[grid]\ndt = 1.0\nt_final = {most - 1}\n", scenario)
    assert cfg.t_final == most - 1
    message = (f"too many grid nodes (at most {most}: the histories of {points} points "
               f"fit in {_SLAB_BUDGET / 1e9:g} GB)")
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text + f"[grid]\ndt = 1.0\nt_final = {most}\n", scenario)
    p = tmp_path / "c.cfg"
    p.write_text(text)
    rc = main(["run", "--scenario", scenario, "--config", str(p),
               "--out", str(tmp_path / "o"), "--dt", "1.0", "--tfinal", str(most)])
    assert rc == 2
    assert f"config error: [grid] t_final / dt = {most:g}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

_SYSTEM ="[system]\ndelta = 1.0\ncoupling = 0.1\n"
_RAW = "[system]\nomega_c = 10.0\ng = 0.01\nomega_drive = 9.0\n"
_THERMAL = "[run]\nengine = fock-master\n[bath]\ntemperature = 0.5\n"


@pytest.mark.parametrize("text, key, flags", [
    ("[system]\ndelta = nan\ncoupling = 0.1\n", "[system] delta: cannot read", ()),
    ("[system]\ndelta = 1.0\ncoupling = inf\n", "[system] coupling: cannot read", ()),
    (_SYSTEM + "[grid]\ndt = nan\n", "[grid] dt: cannot read", ()),
    (_SYSTEM + "[grid]\nt_final = nan\n", "[grid] t_final: cannot read", ()),
    (_SYSTEM + "[bath]\ngamma = -inf\n", "[bath] gamma: cannot read", ()),
    (_SYSTEM + "[sweep]\nparameter = gamma\nstart = 0.5\nstop = 1\nstep = nan\n",
     "[sweep] step: cannot read", ()),
    (_SYSTEM + "[sweep]\nparameter = gamma\nvalues = 0.5, inf\n", "[sweep] values", ()),
    (_SYSTEM + "[sweep]\nparameter = gamma\nstart = 0.5\nstop = 1e9\nstep = 1e-9\n",
     "[sweep] start/stop/step", ()),
    (_SYSTEM + "[run]\nengine = trajectories\nseed = -1\n", "[run] seed", ()),
    (_SYSTEM + "[run]\nstore_every = -5\n", "[run] store_every", ()),
    ("[system]\ndelta = 1.0\ncoupling = -0.1\n", "[system] coupling must be", ()),
    (_SYSTEM, "[system] coupling must be", ("--coupling", "-0.1")),
    (_SYSTEM + "[sweep]\nparameter = coupling\nvalues = 0.1, -0.1\n",
     "[sweep] coupling values", ()),
    (_SYSTEM + "omega_m = -1.0\n", "[system] omega_m must be", ()),
    (_RAW + "drive = 1.0\nkappa = -1.0\n", "[system] kappa must be", ()),
    (_RAW + "drive = -1.0\nkappa = 1.0\n", "[system] drive must be", ()),
    (_SYSTEM + _THERMAL + "omega_env = -100\ngamma = 1\n", "[bath] omega_env = -100",
     ()),
    (_SYSTEM + _THERMAL + "[sweep]\nparameter = omega_env\nvalues = 0.0, -100\n",
     "[bath] omega_env = -100", ()),
])
def test_exit_code_two_on_out_of_range_numbers(tmp_path, capsys, text, key, flags):
    p = tmp_path / "c.cfg"
    p.write_text(text)
    rc = main(["run", "--scenario", "custom", "--config", str(p),
               "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_MARKOV = "kernel = markov\n"
_TABULATED = "kernel = tabulated\ntable = {table}\n"
_TABLE = "lag,re,im\n0,1,0\n0.5,0.5,0\n1.0,0.25,0\n"
_SHORT = "[grid]\nt_final = 0.5\n"


@pytest.mark.parametrize("scenario, bath, table, key, flags", [
    pytest.param("custom", _TABULATED, "lag,re,im\n0.5,1,0\n1.0,0.5,0\n1.5,0.25,0\n",
                 "kernel table {table}: lag grid must start at 0", (), id="lags-from-0.5"),
    pytest.param("custom", _TABULATED, "lag,re,im\n0,1,0\n0.3,0.5,0\n0.9,0.25,0\n",
                 "kernel table {table}: lag grid must be uniform", (), id="non-uniform-lags"),
    pytest.param("custom", _TABULATED, "lag,re,im\n0,1,0\n",
                 "kernel table {table}: need at least two lag samples", (), id="one-row"),
    pytest.param("custom", _MARKOV + "[sweep]\nparameter = gamma\nvalues = 0.3, 3.0\n",
                 _TABLE, "[sweep] gamma does not enter the markov kernel", (),
                 id="gamma-sweep-markov"),
    pytest.param("custom", _MARKOV + "[sweep]\nparameter = omega_env\nvalues = 0.0, 1.0\n",
                 _TABLE, "[sweep] omega_env does not enter the markov kernel", (),
                 id="omega_env-sweep-markov"),
    pytest.param("custom", _TABULATED + "[sweep]\nparameter = decay\nvalues = 1.0, 2.0\n",
                 _TABLE, "[sweep] decay does not enter the tabulated kernel", (),
                 id="decay-sweep-tabulated"),
    *[pytest.param(fig, bath, _TABLE, "need kernel = ou", (), id=f"{fig}-{bath.split()[2]}")
      for fig in ("fig2", "fig3", "fig4", "fig5") for bath in (_MARKOV, _TABULATED)],
    # a user-set [bath] key that the kernel does not read (a short grid, so
    # that a run which ignores the key ends quickly and fails the test)
    pytest.param("custom", _MARKOV + _SHORT, _TABLE,
                 "[bath] gamma does not enter the markov kernel", ("--gamma", "3.0"),
                 id="gamma-flag-markov"),
    pytest.param("custom", _TABULATED + "omega_env = 1.0\n" + _SHORT, _TABLE,
                 "[bath] omega_env does not enter the tabulated kernel", (),
                 id="omega_env-tabulated"),
    pytest.param("custom", _TABULATED + "decay = 1.0\n" + _SHORT, _TABLE,
                 "[bath] decay does not enter the tabulated kernel", (),
                 id="decay-tabulated"),
])
def test_exit_code_two_on_kernel_config_error(tmp_path, capsys, scenario, bath,
                                              table, key, flags):
    # a bad kernel table, or a parameter the kernel does not have
    path = tmp_path / "k.csv"
    path.write_text(table)
    p = tmp_path / "c.cfg"
    p.write_text(_SYSTEM + "[bath]\n" + bath.format(table=path))
    rc = main(["run", "--scenario", scenario, "--config", str(p),
               "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert key.format(table=path) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_WARM = "[bath]\ntemperature = {}\n[run]\nengine = fock-master\ninclude_f5 = false\n"
_T_SWEEP = "[sweep]\nparameter = temperature\nvalues = {}\n"


@pytest.mark.parametrize("scenario, text, flags", [
    ("fig2", "[run]\ninclude_f5 = false\n", ("--dt", "0.5")),
    ("custom", _SYSTEM + _WARM.format(0.5), ("--tfinal", "0.2")),
    ("custom", _SYSTEM + _WARM.format(0.0).replace("false", "true") + _T_SWEEP.format("0.1, 0.2"),
     ("--tfinal", "0.2")),
], ids=["fig2", "finite-temperature", "warm-temperature-sweep"])
def test_exit_code_two_on_an_include_f5_that_no_point_reads(tmp_path, capsys, scenario,
                                                           text, flags):
    # fig2 always solves F5 for its ratio; the thermal coefficients have none
    p = tmp_path / "c.cfg"
    p.write_text(text)
    assert main(["run", "--scenario", scenario, "--config", str(p),
                 "--out", str(tmp_path / "o"), *flags]) == 2
    assert "[run] include_f5 is read by no point" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # a zero-temperature point of a sweep reads it
    assert not parse_config(_SYSTEM + _WARM.format(0.0) + _T_SWEEP.format("0, 0.1")).include_f5


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-inf", "+inf", "1e400", "-0", "0x10", "1_0", ""]),
)
_JUNK = st.text(alphabet="abcxyz019.,-+=[]%#;:$() \t\n", max_size=12)
_DIMS = st.lists(st.integers(-3, 40).map(str), max_size=3).map(",".join)
_VALUES = st.one_of(_NUMBERS, _JUNK, _DIMS,
                    st.sampled_from(["ou", "markov", "tabulated", "moments",
                                     "fock-master", "true", "csv,svg", "gamma"]))
_SECTIONS = st.sampled_from(sorted(_SCHEMA) + ["DEFAULT", "sweeps", "Run", ""])


@st.composite
def _config_text(draw):
    sections = {}
    if draw(st.booleans()):  # a complete base, so fuzzed keys reach validation
        coupling = draw(st.floats(-1.0, 4.0).map(repr))  # a fifth of them negative
        sections = {"system": {"delta": "1.0", "coupling": coupling}}
    for sec in draw(st.lists(_SECTIONS, max_size=5, unique=True)):
        keys = sorted(_SCHEMA.get(sec, {})) + ["bogus", "Gamma", "t final"]
        for key in draw(st.lists(st.sampled_from(keys), max_size=6, unique=True)):
            sections.setdefault(sec, {})[key] = draw(_VALUES)
    if draw(st.booleans()):
        # a range sweep of at most ~1,000 points
        start = draw(st.floats(-5, 5))
        step = draw(st.floats(1e-3, 5))
        stop = start + step * draw(st.integers(0, 999))
        param = draw(st.sampled_from(["gamma", "decay", "delta", "temperature"]))
        sections["sweep"] = {"parameter": param, "start": repr(start),
                             "stop": repr(stop), "step": repr(step)}
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for sec, kv in sections.items())


@settings(max_examples=300, deadline=None)
@given(_config_text(), st.sampled_from(_SCENARIOS))
def test_fuzzed_config_raises_only_config_error(text, scenario):
    try:
        cfg = parse_config(text, scenario=scenario)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    assert math.isfinite(cfg.dt) and math.isfinite(cfg.t_final)
    # a config that parses builds its system and kernel at every sweep
    # point, or fails as a config error or a numerical failure
    param, pts = cfg.sweep or (None, [None])
    try:
        cfg.system()
        cfg.bath_kernel()
        for x in pts:
            _custom_point(cfg, **({param: x} if param else {}))
    except (ConfigError, NumericalFailure):
        pass


def test_exit_code_three_on_numerical_failure(tmp_path, capsys):
    # resonant environment above the damping threshold: the coefficient
    # system blows up in finite time and the run must fail loudly
    cfg_text = """\
[system]
delta = 1.0
coupling = 0.1
[bath]
kernel = ou
decay = 2.0
gamma = 1.0
omega_env = 1.0
[grid]
dt = 0.01
t_final = 4.0
"""
    p = tmp_path / "c.cfg"
    p.write_text(cfg_text)
    rc = main(["run", "--scenario", "custom", "--config", str(p),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numeric failure:" in capsys.readouterr().err
    # the same point among benign ones of a sweep, which march as one batch
    p.write_text(cfg_text + "[sweep]\nparameter = omega_env\nvalues = 0.0, 1.0, 0.2\n")
    rc = main(["run", "--scenario", "custom", "--config", str(p),
               "--out", str(tmp_path / "sweep")])
    assert rc == 3
    assert "numeric failure: closed coefficient system is stiff" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["run", "--scenario", "custom",
               "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_trajectory_engine_runs_end_to_end(tmp_path):
    cfg_text = """\
[system]
delta = 1.0
coupling = 0.1
[bath]
kernel = ou
decay = 2.0
gamma = 0.6
[grid]
dt = 0.02
t_final = 1.0
[run]
engine = trajectories
paths = 50
dims = 4,4
seed = 7
"""
    p = tmp_path / "c.cfg"
    p.write_text(cfg_text)
    out = tmp_path / "o"
    assert main(["run", "--scenario", "custom", "--config", str(p),
                 "--out", str(out)]) == 0
    rows = (out / "timeseries.csv").read_text().strip().splitlines()
    assert rows[0].startswith("t,en")
    assert len(rows) > 3


def test_fig2_grid_must_reach_the_ratio_time(tmp_path, capsys):
    # the F5/F1 ratio is read at t = 15: a shorter grid is a config error
    # before any output, as the other config errors are
    p = tmp_path / "c.cfg"
    p.write_text("")
    rc = main(["run", "--scenario", "fig2", "--config", str(p),
               "--out", str(tmp_path / "o"), "--tfinal", "10"])
    assert rc == 2
    assert ("config error: time 15 is outside the grid (t_final=10)"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("t_final, slice_t", [("3", 3.0), ("20", None)])
def test_fig4_manifest_names_a_slice_before_t20(tmp_path, t_final, slice_t):
    p = tmp_path / "c.cfg"
    p.write_text("")
    out = tmp_path / "o"
    assert main(["run", "--scenario", "fig4", "--config", str(p), "--out", str(out),
                 "--tfinal", t_final, "--dt", "0.1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    notes = [a for a in manifest["assumptions"] if "slice" in a]
    if slice_t is None:  # the grid reaches t = 20
        assert notes == []
        return
    assert notes == [f"the grid ends before t = 20: the slice and en_at_t20 hold En "
                     f"at its last node, t = {slice_t:g}"]
    # the slice holds the last row of the grid, omega by omega
    last = [float(x) for x in (out / "fig4_en_grid.csv").read_text().split()[-1].split(",")]
    assert last[0] == slice_t
    at_slice = sorted(manifest["metrics"]["en_at_t20"].items(), key=lambda kv: float(kv[0]))
    assert [en for _, en in at_slice] == last[1:]


def _header(path):
    return path.read_text().split("\n", 1)[0]


def _f_header(n):
    return "t," + ",".join(f"f{j}_{part}" for j in range(1, n + 1) for part in ("re", "im"))


@pytest.mark.parametrize("extra, name, header", [
    ("", "coefficients.csv", _f_header(5)),
    ("[run]\ninclude_f5 = false\n", "coefficients.csv", _f_header(4)),
    ("temperature = 0.1\n[run]\nengine = fock-master\ndims = 3,3\n",
     "thermal_coefficients.csv",
     "t," + ",".join(f"x{i}{j}_{part}" for i in (1, 2) for j in range(1, 5)
                     for part in ("re", "im"))),
], ids=["f5", "no-f5", "thermal"])
def test_coefficient_table_headers(tmp_path, extra, name, header):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + extra)
    out = tmp_path / "o"
    assert main(["run", "--scenario", "custom", "--config", str(p), "--out", str(out),
                 "--tfinal", "0.2"]) == 0
    assert _header(out / name) == header
    assert json.loads((out / "manifest.json").read_text())["outputs"][0] == name


def test_scan_table_headers(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("")
    for scenario in ("fig3", "fig5"):
        assert main(["run", "--scenario", scenario, "--config", str(p),
                     "--out", str(tmp_path / scenario), "--tfinal", "0.2"]) == 0
    assert (_header(tmp_path / "fig3" / "fig3_en.csv")
            == "t,en_gamma0p3,en_gamma0p6,en_gamma1p2,en_markov")
    deltas = [f"{1 + k / 20:g}".replace(".", "p") for k in range(41)]  # 1, 1p05, ..., 3
    assert (_header(tmp_path / "fig5" / "fig5_en_grid_gamma1p5.csv")
            == "t," + ",".join(f"en_delta{d}" for d in deltas))


_SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                     1.7976931348623157e308, 0.1, -1.0 / 3.0])


@pytest.mark.parametrize("cols", [
    [_SPECIAL, _SPECIAL[::-1], np.array([0, 1, -1, 2**53 + 1, 2**62, -2**63, 7, 8, 9, 10])],
    [np.empty(0), np.empty(0, dtype=int)],
    [np.arange(2 * _CSV_CHUNK + 5) - 7,
     np.random.default_rng(3).standard_normal(2 * _CSV_CHUNK + 5)
     * 10.0 ** np.random.default_rng(4).integers(-300, 300, 2 * _CSV_CHUNK + 5)],
], ids=["special", "no-rows", "chunks"])
def test_csv_writer_matches_the_value_by_value_format(tmp_path, cols):
    # -0.0, nan, +-inf, the smallest subnormal, the largest double and
    # integer columns; a file of the header only; more rows than a chunk
    names = [f"c{i}" for i in range(len(cols))]
    _write_csv(tmp_path / "t.csv", names, cols)
    want = "".join(",".join(_fmt(x) for x in row) + "\n" for row in zip(*cols))
    assert (tmp_path / "t.csv").read_bytes() == (",".join(names) + "\n" + want).encode()


def test_heat_colors_match_the_cell_by_cell_colors():
    # below 0, above 1, every stop, and in between
    u = np.concatenate([[-1.0, -0.0, -1e-300, 1.0 + 1e-12, 2.0, 1e300], np.arange(11) / 10,
                        np.random.default_rng(4).uniform(-0.1, 1.1, 500)])
    assert [f"#{c:06x}" for c in _heat_colors(u).tolist()] == [_heat_color(x) for x in u]


@pytest.mark.parametrize("Z", [np.random.default_rng(5).normal(size=(50, 21)),
                               np.full((7, 3), 0.3)], ids=["random", "constant"])
def test_heat_map_cells_match_the_cell_by_cell_writer(tmp_path, Z):
    # a constant Z takes the hi <= lo branch: every cell at the first stop
    _write_svg_heat(tmp_path / "h.svg", np.arange(Z.shape[1]), np.arange(len(Z)) * 0.1,
                    Z, "title", "x", "y")
    cells = [x for x in (tmp_path / "h.svg").read_text().split("\n") if 'fill="#' in x]
    lo, hi = Z.min(), Z.max()
    hi = hi if hi > lo else lo + 1.0
    cw, ch = 630 / Z.shape[1], 390 / Z.shape[0]
    assert cells == [f'<rect x="{70 + c * cw:.2f}" y="{430 - (r + 1) * ch:.2f}" '
                     f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                     f'fill="{_heat_color((Z[r, c] - lo) / (hi - lo))}"/>'
                     for r in range(Z.shape[0]) for c in range(Z.shape[1])]
