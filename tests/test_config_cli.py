import argparse
import hashlib
import inspect
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bjj
import bjj.integrate
from bjj import cli, config
from bjj.cli import _csv_text, main
from bjj.config import RunConfig, fmt, merge_sources, parse_config, parse_kv_text
from bjj.errors import ConfigError
from bjj.integrate import StepControl, default_control

PRESETS = sorted(p.name for p in __import__("pathlib").Path("presets").glob("*.cfg"))


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


# --- parsing ----------------------------------------------------------------


def test_single_key_takes_defaults():
    cfg = RunConfig.from_values(parse_kv_text("lambda=10"))
    assert cfg.lam == 10.0
    assert cfg.eta == 0.0
    assert cfg.z0 == 0.5
    assert cfg.window == "hann"


def test_comments_and_inline_comments():
    values = parse_kv_text("# a plain remark\nlambda = 4 # and a trailing one\n\n")
    assert values == {"lambda": 4.0}


def test_metadata_style_comment_lines_assign():
    values = parse_kv_text("# lambda=4\n# omega=6.283\n# this line stays a comment\n")
    assert values == {"lambda": 4.0, "omega": 6.283}
    # an annotated value does not parse cleanly, so it stays a comment
    assert parse_kv_text("# t_end=5 (disabled)\n") == {}


def test_unknown_keys_listed_with_lines():
    with pytest.raises(ConfigError, match=r"'speling' \(line 2\)"):
        parse_kv_text("lambda=1\nspeling=3\n")


def test_malformed_and_empty_values():
    with pytest.raises(ConfigError, match=r":1: expected key=value"):
        parse_kv_text("just words")
    with pytest.raises(ConfigError, match="empty value for 'eta'"):
        parse_kv_text("eta=")
    with pytest.raises(ConfigError, match="invalid value for 'eta'"):
        parse_kv_text("eta=fast")


def test_range_error_names_key():
    with pytest.raises(ConfigError, match="'eta'"):
        RunConfig.from_values(parse_kv_text("eta=-0.1"))
    with pytest.raises(ConfigError, match="'z0'"):
        RunConfig.from_values(parse_kv_text("z0=1.5"))


# Inputs that at one time gave NaN rows, a hang, or an error naming no key.
NON_FINITE_INPUTS = [
    (["simulate", "--z0", "nan"], "z0"),
    (["melnikov", "--energy", "nan"], "energy"),
    (["simulate", "--abs-tol", "nan"], "abs_tol"),
    (["simulate", "--sample-dt", "nan"], "sample_dt"),
    (["simulate", "--h-max", "nan"], "h_max"),
    (["simulate", "--eta", "nan"], "eta"),
    (["classify", "--z0", "nan"], "z0"),
    (["simulate", "--t-end", "inf"], "t_end"),
]


@pytest.mark.parametrize(
    "argv,key", NON_FINITE_INPUTS, ids=[" ".join(a) for a, _ in NON_FINITE_INPUTS]
)
def test_range_error_names_key_non_finite(argv, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        RunConfig.from_values({key: float(argv[-1])})
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def _lyapunov(**kw):
    return bjj.lyapunov_estimate(bjj.TrapParams(lam=10.0), 0.5, 0.0, **{"horizon": 2.0, **kw})


def _locking(**kw):
    zeros = np.zeros(500)
    sec = bjj.Trajectory(t=np.arange(500) * bjj.TrapParams(lam=10.0, de1=1.0).period,
                         z=zeros, phi=zeros, dz_dt=zeros)
    return bjj.detect_frequency_locking(sec, **{"discard_periods": 10, **kw})


def _stability_curve(**kw):
    return bjj.stability_curve(bjj.SeparatrixFrame(lam=4.0, h=0.5), 0.3, **kw)


def _melnikov(**kw):
    return bjj.melnikov_numeric(bjj.SeparatrixFrame(lam=4.0, h=0.5), bjj.TrapParams(lam=4.0),
                                **kw)


def _sampled(t_end=1.0, **kw):
    return bjj.integrate_adaptive(bjj.TrapParams(lam=10.0), bjj.PhaseState(0.0, 0.5, 0.0),
                                  t_end, **kw)


# (key, bad values, owner, module whose MAX_TARGETS shrinks to 10 during the
# call); the config keys are the owners' keyword names.
RANGE_RULES = [
    ("d0", {"d0": 0.0}, _lyapunov, None),
    ("d0", {"d0": -1e-8}, _lyapunov, None),
    ("renorm_interval", {"renorm_interval": 0.0}, _lyapunov, None),
    ("horizon", {"horizon": 0.1}, _lyapunov, None),
    ("renorm_interval", {"horizon": 1e300, "renorm_interval": 1e-300}, _lyapunov, None),
    ("renorm_interval", {"horizon": 1.1, "renorm_interval": 0.1}, _lyapunov, bjj.analysis),
    ("cluster_tol", {"cluster_tol": 0.0}, _locking, None),
    ("max_order", {"max_order": 0}, _locking, None),
    ("chaos_spread_min", {"chaos_spread_min": 0.0}, _locking, None),
    ("chaos_spread_min", {"chaos_spread_min": math.nan}, _locking, None),
    ("xi_max", {"xi_max": 0.0}, _melnikov, None),
    ("xi_max", {"xi_max": -1.0}, _melnikov, None),
    ("xi_max", {"xi_max": math.nan}, _melnikov, None),
    ("omega_min", {"omega_min": 0.0}, _stability_curve, None),
    ("omega_max", {"omega_max": 0.4}, _stability_curve, None),
    ("n_points", {"n_points": 1}, _stability_curve, None),
    ("n_points", {"n_points": 11}, _stability_curve, bjj.separatrix),
    ("sample_dt", {"sample_dt": 0.0}, _sampled, None),
    ("sample_dt", {"t_end": 1e300, "sample_dt": 1e-300}, _sampled, None),
]


@pytest.mark.parametrize(
    "key,values,owner,capped", RANGE_RULES,
    ids=[",".join(f"{k}={v}" for k, v in vals.items()) + ("-capped" if capped else "")
         for _, vals, _, capped in RANGE_RULES],
)
def test_range_rule_is_the_owners(key, values, owner, capped, monkeypatch):
    if capped is not None:
        monkeypatch.setattr(capped, "MAX_TARGETS", 10)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        RunConfig.from_values(values)
    with pytest.raises(ValueError, match=f"'{key}'"):
        owner(**values)


# API arguments whose range errors the config layer never reaches.
API_RANGE_RULES = [
    ("eta", lambda: bjj.stability_curve(bjj.SeparatrixFrame(lam=4.0, h=0.5), -1.0)),
    ("discard_periods", lambda: _locking(discard_periods=-1)),
    ("window", lambda: bjj.power_spectrum(np.arange(32.0), np.zeros(32), window="x")),
    ("sample_dt", lambda: bjj.crosscheck_max_dz(bjj.TrapParams(lam=2.0), 0.4, 0.0,
                                                sample_dt=None)),
    ("omega", lambda: bjj.drive_coefficient(bjj.SeparatrixFrame(lam=4.0, h=0.5), -1.0)),
    ("t_hi", lambda: bjj.running_stability_integral(bjj.SeparatrixFrame(lam=2.0, h=1.0),
                                                    bjj.TrapParams(lam=2.0), 1.0, 0.0)),
    ("z0", lambda: bjj.frame_from_initial(2.0, 1.0, 2.0, 0.0)),
]


@pytest.mark.parametrize("key,call", API_RANGE_RULES, ids=[k for k, _ in API_RANGE_RULES])
def test_api_range_errors_quote_their_key(key, call):
    with pytest.raises(ValueError, match=f"^'{key}' must .*, got "):
        call()


@pytest.mark.parametrize("key", ["lamda", "lam"])
def test_from_values_rejects_unknown_keys(key):
    # "lam" is the field name; no config file or flag can spell it
    with pytest.raises(ConfigError, match=f"^unknown keys: '{key}'$"):
        RunConfig.from_values({"eta": 0.1, key: 3.0})


def test_control_carries_every_step_key():
    steps = {"abs_tol": 1e-7, "rel_tol": 2e-7, "h_init": 3e-3, "h_min": 4e-9,
             "h_max": 0.02, "safety": 0.8}
    assert {f.name for f in fields(StepControl)} == set(steps)
    ctl = RunConfig.from_values(steps).control()
    assert {name: getattr(ctl, name) for name in steps} == steps
    # unset h_max is derived from the drive
    driven = RunConfig.from_values({"de1": 3.0, "omega_pi": 4.0})
    assert driven.control().h_max == default_control(driven.trap).h_max
    assert driven.control().h_max == driven.period / 50.0
    assert RunConfig.from_values({}).control().h_max == 0.05


def _defaults(func, *names):
    params = inspect.signature(func).parameters
    return {name: params[name].default for name in names}


def test_cli_and_api_defaults_agree():
    # each default is written twice, once as a RunConfig field and once in
    # the API the command calls; a run and the same call must agree
    cfg = RunConfig()
    api = {f.name: f.default for cls in (StepControl, bjj.TrapParams) for f in fields(cls)
           if f.name not in {"h_max", "lam"}}
    api["damping"] = api["damping"].value
    api.update(_defaults(bjj.lyapunov_estimate, "d0", "renorm_interval", "horizon"))
    api.update(_defaults(bjj.detect_frequency_locking,
                         "cluster_tol", "max_order", "chaos_spread_min"))
    api.update(_defaults(bjj.melnikov_numeric, "xi_max"))
    api.update(_defaults(bjj.stability_curve, "omega_min", "omega_max", "n_points"))
    api.update(_defaults(bjj.power_spectrum, "window"))
    assert {name: getattr(cfg, name) for name in api} == api

    def echo(command):
        args = cli._build_parser(command).parse_args([command])
        return dict(cli._resolve_config(args).metadata_values())

    crosscheck = _defaults(bjj.crosscheck_max_dz, "t_end", "sample_dt")
    assert {key: echo("crosscheck")[key] for key in crosscheck} == crosscheck
    assert echo("attractor")["discard"] == _defaults(
        bjj.detect_frequency_locking, "discard_periods")["discard_periods"]


FLOAT_KEYS = sorted(k for k, (parse, _) in config._KEYS.items() if parse is config._parse_float)


@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from(FLOAT_KEYS), st.floats(), max_size=4))
def test_from_values_rejects_or_returns_finite(values):
    try:
        cfg = RunConfig.from_values(values)
    except ConfigError:
        return
    assert all(math.isfinite(v) for v in vars(cfg).values() if isinstance(v, float))
    try:
        ctl = cfg.control()
    except ConfigError as exc:
        assert "'h_max' must be finite and >= h_min=" in str(exc)
        return
    assert all(math.isfinite(getattr(ctl, f.name)) for f in fields(StepControl))


def test_h_max_below_h_min_is_refused_where_the_policy_is_built():
    # validate holds h_max to > 0 only, so a command that never integrates
    # takes it; control() refuses it
    cfg = RunConfig.from_values({"h_max": 1e-13})
    with pytest.raises(ConfigError, match="^out-of-range value: 'h_max' must be finite"):
        cfg.control()


def test_exclusive_pairs_conflict_within_one_source():
    with pytest.raises(ConfigError, match="conflicts with"):
        parse_kv_text("t_end=10\nn_periods=5\n")
    with pytest.raises(ConfigError, match="conflicts with"):
        parse_kv_text("omega=2\nomega_pi=1\n")


def reference_parse_kv_text(text, source="<config>"):
    """parse_kv_text as it was with a separate reader for metadata comments."""

    def metadata_assignment(comment):
        body = comment.lstrip("#").strip()
        if "=" not in body:
            return None
        key, _, raw_value = body.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in config._KEYS or not raw_value:
            return None
        parser, _ = config._KEYS[key]
        try:
            return key, parser(raw_value)
        except ValueError:
            return None

    values = {}
    unknown = []

    def assign(key, value, lineno):
        other = config._EXCLUSIVE.get(key)
        if other is not None and other in values:
            raise ConfigError(
                f"{source}:{lineno}: '{key}' conflicts with '{other}' set above; "
                "set exactly one"
            )
        values[key] = value

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if stripped.startswith("#"):
            pair = metadata_assignment(stripped)
            if pair is not None:
                assign(pair[0], pair[1], lineno)
            continue
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in config._KEYS:
            unknown.append(f"'{key}' (line {lineno})")
            continue
        if not raw_value:
            raise ConfigError(f"{source}:{lineno}: empty value for '{key}'")
        parser, _ = config._KEYS[key]
        try:
            value = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: invalid value for '{key}': {raw_value!r} ({exc})"
            ) from None
        assign(key, value, lineno)
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {', '.join(unknown)}")
    return values


# Known keys (both members of each exclusive pair, int and word keys) and
# unknown ones, good, bad and empty values, and the ways a line can wrap them.
KV_LINES = st.one_of(
    st.sampled_from(["", "   ", "#", "# ", "just words", "# a plain remark"]),
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["", "  ", "# ", "#", "## ", "  # "]),
            st.sampled_from(["lambda", "eta", "t_end", "n_periods", "omega", "omega_pi",
                             "window", "damping", "n_z", "speling", "lam", ""]),
            st.sampled_from(["=", " = ", "= ", " =", "", "=="]),
            st.sampled_from(["4", "0.5", "-1e-3", "7", "hann", "velocity", "fast", "1.5",
                             "", "inf"]),
            st.sampled_from(["", "  ", " # note", "# note", " (disabled)"]),
        ),
    ),
)


def parse_outcome(parse, text):
    try:
        return repr(parse(text, source="cfg"))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@settings(max_examples=500)
@given(st.lists(KV_LINES, max_size=6))
@example(["# t_end=5", "n_periods=3"])
@example(["n_periods=3", "# t_end=5"])
@example(["# lambda=4 # note", "# lambda = 2", "eta=fast", "speling=1"])
def test_kv_reader_matches_reference(lines):
    text = "\n".join(lines)
    assert parse_outcome(parse_kv_text, text) == parse_outcome(reference_parse_kv_text, text)


def test_later_source_retires_exclusive_partner():
    merged = merge_sources({"n_periods": 500}, {"t_end": 10.0})
    assert merged == {"t_end": 10.0}
    merged = merge_sources({"omega": 2.0}, {"omega_pi": 4.0})
    cfg = RunConfig.from_values(merged)
    assert cfg.omega == pytest.approx(4.0 * math.pi, rel=0.0)


def test_omega_pi_is_exact():
    cfg = RunConfig.from_values(parse_kv_text("omega_pi=4"))
    assert cfg.omega == 4.0 * math.pi


def test_fmt_round_trips_doubles():
    for x in (math.pi, 1e-300, 0.1, 2.0, 4.0 * math.pi):
        assert float(fmt(x)) == x


def reference_csv_text(cfg, header, rows):
    """_csv_text as it was when every value went through fmt on its own."""
    lines = cfg.metadata_lines()
    lines.append(header)
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]), st.floats())
INT64 = st.integers(-(2**63), 2**63 - 1)
# One strategy per column kind: plain Python values (ints past 2**53
# included), numpy scalars, and the numpy arrays the handlers pass.
COLUMNS = {
    "int": st.integers(-(2**70), 2**70),
    "float": FLOATS,
    "np.float64": FLOATS.map(np.float64),
    "np.int64": INT64.map(np.int64),
}


@st.composite
def csv_columns(draw):
    n = draw(st.integers(0, 6))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=4)):
        column = draw(st.lists(COLUMNS[kind], min_size=n, max_size=n))
        if kind.startswith("np.") and draw(st.booleans()):
            column = np.array(column)
        columns.append(column)
    return columns


@settings(max_examples=200)
@given(csv_columns())
@example([[1, 2**53 + 1, -(2**70)], [0.1, -0.0, 5e-324],
          [np.float64(math.nan), np.float64(math.inf), np.float64(-math.inf)],
          np.array([2**62, -1, 0])])
def test_csv_rows_match_fmt_per_value(columns):
    cfg = RunConfig.from_values({"lambda": 2.0})
    header = ",".join(f"c{i}" for i in range(len(columns)))
    want = reference_csv_text(cfg, header, zip(*columns))
    assert _csv_text(cfg, header, *columns) == want


@pytest.mark.parametrize("name", PRESETS)
def test_presets_parse(name):
    values = parse_config(f"presets/{name}")
    RunConfig.from_values(values)  # validates


def test_fig5_preset_matches_caption_parameters():
    cfg = RunConfig.from_values(parse_config("presets/fig5_de1_7.5.cfg"))
    assert (cfg.lam, cfg.z0, cfg.phi0, cfg.de0, cfg.de1, cfg.eta) == (
        10.0,
        0.5,
        0.0,
        0.0,
        7.5,
        0.0,
    )
    assert cfg.omega == 4.0 * math.pi
    assert cfg.n_periods == 5000


# --- CLI behaviour ----------------------------------------------------------


def test_simulate_csv_shape(tmp_path):
    code, text = run_cli(
        ["simulate", "--lambda", "10", "--t-end", "1", "--sample-dt", "0.25"], tmp_path
    )
    assert code == 0
    lines = text.splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "t,z,phi,dzdt"
    assert lines[-1].startswith("1,")
    assert "# lambda=10" in lines
    # 17-significant-digit formatting of the resolved default drive frequency
    assert f"# omega={2 * math.pi:.17g}" in lines


def test_metadata_header_reproduces_run_bytes(tmp_path):
    args = ["simulate", "--lambda", "7", "--z0", "0.3", "--t-end", "2", "--sample-dt", "0.5"]
    code, first = run_cli(args, tmp_path, "a.csv")
    assert code == 0
    meta = "\n".join(l for l in first.splitlines() if l.startswith("#"))
    cfg_file = tmp_path / "replay.cfg"
    cfg_file.write_text(meta + "\n")
    code, second = run_cli(["simulate", "--config", str(cfg_file)], tmp_path, "b.csv")
    assert code == 0
    assert first == second


def test_unknown_metadata_comments_stay_comments(tmp_path):
    # run statistics written as `# key=value` lines name no config key, so a
    # replay reads them as plain comments
    stats = "# stat_rate_evals=26969\n# stat_steps_rejected=12\n"
    assert parse_kv_text(stats) == {}
    assert parse_kv_text("# lambda=4\n" + stats) == {"lambda": 4.0}
    args = ["simulate", "--lambda", "7", "--z0", "0.3", "--t-end", "2", "--sample-dt", "0.5"]
    code, first = run_cli(args, tmp_path, "a.csv")
    assert code == 0
    meta = "\n".join(l for l in first.splitlines() if l.startswith("#"))
    cfg_file = tmp_path / "replay.cfg"
    cfg_file.write_text(meta + "\n" + stats)
    code, second = run_cli(["simulate", "--config", str(cfg_file)], tmp_path, "b.csv")
    assert code == 0
    assert first == second


def test_repeat_runs_are_byte_identical(tmp_path):
    args = ["poincare", "--preset", "fig5_de1_3.0", "--n-periods", "40"]
    _, a = run_cli(args, tmp_path, "a.csv")
    _, b = run_cli(args, tmp_path, "b.csv")
    assert a and a == b
    header = [l for l in a.splitlines() if not l.startswith("#")][0]
    assert header == "n,z,dzdt"


@pytest.mark.parametrize(
    "args, digest",
    [
        (["poincare", "--preset", "fig5_de1_7.5", "--n-periods", "200"],
         "5b267080b0aa100e000695f53ad3929e1fda2ef9dfb8e0d41430cffe75ccfe34"),
        (["simulate", "--preset", "fig7_left", "--t-end", "20", "--sample-dt", "0.01"],
         "eb6862af88095ff96d75946a6279a59743301a9bbf1bbf876019daca23711021"),
        (["crosscheck", "--preset", "fig5_de1_3.0", "--t-end", "5"],
         "32de772b14248c693c8d541aa86cb2a3333e5f6a264413ab86dfd70ce49b7887"),
        # population-damped
        (["attractor", "--preset", "fig8_de1_3.0", "--n-periods", "400", "--discard", "100"],
         "e73ed662bd88f80dabfb3497c3809d4c7629dc4a55d5c7110c0258ec6d150078"),
        # undriven: the tilt is de0 at every stage
        (["simulate", "--preset", "fig4a", "--t-end", "30"],
         "6d70e6b74ebc9102551902164aa528bb9c7b2ea0a42bc4e55df130c5eec470bd"),
        # restarted tangent runs: the tilt is recomputed after every landing
        (["lyapunov", "--preset", "fig5_de1_7.5", "--horizon", "5"],
         "eb93d42ac80f4759c32c40f87f2aac7f76943278d429e3a3f2b475d781711f80"),
        # the quadrature and the closed form, with and without c0 and drive
        (["melnikov", "--preset", "fig3_eta0.1"],
         "ee1c262d114b872d75f55fd0a27b81f69458280d49b4dbf27c17edb9dcca535e"),
        (["stability-curve", "--preset", "fig3_eta0.1"],
         "7bdb4c8c26fb2c41b04a39e759d23b21effab62ce30b5918c104a770ccd08ea1"),
        (["melnikov", "--lambda", "4", "--energy", "0.9", "--c0", "0.3", "--eta", "0.1",
          "--de1", "0.4", "--omega", "2"],
         "e7f467f17f12061b8331f79cee4cf914c89484ff0910389e3c3a102fc7079335"),
        # c0 != 0: cosine-zero asymptote rows between the grid rows
        (["stability-curve", "--lambda", "4", "--energy", "0.9", "--eta", "0.1", "--c0", "0.3",
          "--omega-max", "50"],
         "06c1e87468d6356869ce15f3e1087738fd5c0f7654a3569c3f04738375ea1ae3"),
        # the echo of a derived h_max: undriven, without integrating, and
        # over sampled and sectioned runs
        (["potential", "--preset", "fig1a"],
         "e76181ff32ec91c9f58813284bf01ac33ba7de5ee86b443277b2030965fdc6ff"),
        (["classify", "--preset", "fig5_de1_7.5"],
         "854c5d785b28913160916c24cb180de914cb40493819da0395f9561f0655e8cf"),
        (["spectrum", "--preset", "fig7_left", "--n-periods", "100"],
         "769c5860cd4ec66acf42705df4faa0e6355130a6ff13f9e4e05f03a33bb32231"),
        (["attractor", "--preset", "fig8_de1_3.0", "--damping", "velocity",
          "--n-periods", "400", "--discard", "100"],
         "16923fb3bf51dbeb8bfd416d13a4c57d2d8f61ca6856dca3b7e37bc12cc9bc86"),
    ],
    ids=["poincare", "simulate", "crosscheck", "attractor_damped", "simulate_undriven",
         "lyapunov", "melnikov", "stability_curve", "melnikov_driven",
         "stability_curve_c0", "potential", "classify", "spectrum", "attractor_velocity"],
)
def test_cli_outputs_keep_pinned_bytes(tmp_path, args, digest):
    # SHA-256 of outputs recorded before the driver was written out stage
    # by stage (the first three), before the driver took over the tilt (the
    # next three), before the Melnikov integrand was built from the named
    # z11 and eps1 (the next three) and before only the commands that
    # integrate took a step policy (the last four); a stepper, quadrature
    # or echo change that moves one bit shows here.
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_classify_reports_rabi_for_driven_chaotic_preset(tmp_path):
    code, text = run_cli(["classify", "--preset", "fig5_de1_7.5"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["kind"] == "RabiOscillation"
    assert doc["config"]["lambda"] == 10


def test_melnikov_zero_drive_zero_damping(tmp_path):
    code, text = run_cli(
        ["melnikov", "--lambda", "2", "--energy", "1", "--de1", "0", "--eta", "0"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["melnikov_closed"] == 0
    assert doc["melnikov_numeric"] == 0
    assert doc["asymptote_omega"] == 1


@pytest.mark.parametrize("xi_max", ["1e6", "1e308"])
def test_melnikov_wide_window_finds_the_closed_form(xi_max, tmp_path):
    code, text = run_cli(["melnikov", "--preset", "fig3_eta0.1", "--xi-max", xi_max], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert abs(doc["melnikov_numeric"] - doc["melnikov_closed"]) <= 1e-9


@pytest.mark.parametrize("via", ["flag", "config"])
def test_damping_none_is_refused(via, tmp_path, capsys):
    # eta > 0 is the only damping switch: damping picks one of two placements
    if via == "flag":
        argv = ["simulate", "--t-end", "1", "--eta", "0.1", "--damping", "none"]
    else:
        cfg_file = tmp_path / "none.cfg"
        cfg_file.write_text("eta = 0.1\ndamping = none\n")
        argv = ["simulate", "--t-end", "1", "--config", str(cfg_file)]
    code, text = run_cli(argv, tmp_path)
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert "'none'" in err
    assert re.search(r"population'?, '?velocity\b", err), err


@pytest.mark.parametrize(
    "argv",
    [["melnikov", "--lambda", "4", "--energy", "0.9", "--omega", "1e200", "--eta", "0.1"],
     ["melnikov", "--lambda", "4", "--energy", "0.9", "--c0", "10", "--omega", "1e308",
      "--eta", "0.1"]],
    ids=["melnikov", "melnikov_cosine"],
)
def test_drive_past_the_overflow_exits_0(argv, tmp_path):
    # omega**2, or omega*c0 in the cosine, overflows there; the drive
    # coefficient is a zero, not a traceback
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    assert json.loads(text)["drive_coefficient"] == 0


@pytest.mark.parametrize(
    "argv, omega",
    [(["stability-curve", "--lambda", "2", "--energy", "0.5000005", "--eta", "0.1",
       "--n-points", "5"], "0.5"),
     (["stability-curve", "--lambda", "4", "--energy", "0.9", "--eta", "0.1",
       "--omega-max", "1e200", "--n-points", "3"], "5e+199")],
    ids=["kappa_1e-3", "omega_overflow"],
)
def test_stability_curve_past_the_float_range_exits_2(argv, omega, tmp_path, capsys):
    # where the drive coefficient has underflowed to zero (kappa = 1e-3
    # from omega = 0.5 on; past omega**2's overflow), de1_critical is past
    # the float range: exit 2 naming omega, not a curve without those rows
    assert run_cli(argv, tmp_path) == (2, "")
    lam, energy = argv[2], argv[4]
    assert capsys.readouterr().err == (
        f"runtime failure: de1_critical overflows at omega={omega} "
        f"(lambda={float(lam)!r}, energy={float(energy)!r})\n")


def test_stability_curve_with_many_cosine_zeros(tmp_path, capsys):
    # 59,223 asymptote rows within an alarm; past MAX_TARGETS of them
    # the curve is refused, naming the keys that set the count.  Undamped,
    # the curve is zero: with damping, de1_critical is past the float range
    # at the two upper grid points
    argv = ["stability-curve", "--lambda", "4", "--energy", "0.9", "--eta", "0",
            "--c0", "0.3", "--n-points", "3", "--omega-max"]
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        code, text = run_cli([*argv, "1e6"], tmp_path)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    poles = [r for r in rows if r[1] == "inf"]
    assert len(poles) == 59223 and len(rows) == len(poles) + 3  # and three grid rows
    assert [r[1] for r in rows if r[1] != "inf"] == ["0", "0", "0"]
    assert [int(r[2]) for r in poles] == list(range(len(poles)))
    assert run_cli([*argv, "1e12"], tmp_path, "big")[0] == 1
    assert "'omega_max'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["melnikov", "--lambda", "1e200", "--energy", "1"],
     ["stability-curve", "--lambda", "1e200", "--energy", "1", "--eta", "0.1"]],
    ids=["melnikov", "stability_curve"],
)
def test_interaction_past_the_power_overflow_exits_2(argv, capsys):
    # lam**2 overflows in the damping term, which then takes another form;
    # the drive coefficient's |lam|**3 overflows too, and stops the run
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: drive coefficient overflows at omega=")


@pytest.mark.parametrize(
    "argv",
    [["potential", "--lambda", "1e308", "--energy", "1"],
     ["potential", "--energy", "1", "--z-max", "1e200"],
     ["classify", "--lambda", "1e308"]],
    ids=["potential_lambda", "potential_z_max", "classify"],
)
def test_overflowing_energy_scan_or_class_exits_2(argv, tmp_path, capsys):
    # finite keys whose V(z) or (1 - h^2)/2 is past the float range
    code, text = run_cli(argv, tmp_path)
    assert (code, text) == (2, "")
    assert "overflows at " in capsys.readouterr().err


# A drive too fast to integrate: default_control's h_max, period/50, falls
# below h_min.
FAST_DRIVE = ["--de1", "1", "--omega", "2e11"]


def echo_config(text):
    """The config a run's output echoes: a CSV's '#' lines, or a JSON
    output's "config" object written as key=value lines."""
    if text.startswith("#"):
        return "".join(line + "\n" for line in text.splitlines() if line.startswith("#"))
    return "".join(f"{k}={v}\n" for k, v in json.loads(text)["config"].items())


def assert_replays(command, text, tmp_path):
    cfg_file = tmp_path / "replay.cfg"
    cfg_file.write_text(echo_config(text))
    assert run_cli([command, "--config", str(cfg_file)], tmp_path, "replayed") == (0, text)


@pytest.mark.parametrize(
    "argv",
    [["potential", "--lambda", "4", "--energy", "0.9"], ["classify"],
     ["stability-curve", "--lambda", "4", "--energy", "0.9", "--eta", "0.1", "--n-points", "3"]],
    ids=["potential", "classify", "stability_curve"],
)
def test_commands_that_never_integrate_run_any_drive(argv, tmp_path):
    # they take no step policy; the echo keeps default_control's h_max,
    # and replays
    code, text = run_cli([*argv, *FAST_DRIVE], tmp_path)
    assert code == 0
    assert parse_kv_text(echo_config(text))["h_max"] == 2 * math.pi / 2e11 / 50
    assert_replays(argv[0], text, tmp_path)


def test_melnikov_at_a_drive_too_fast_to_integrate_exits_2(capsys):
    # past the step policy, the quadrature cannot resolve the drive
    assert main(["melnikov", "--lambda", "4", "--energy", "0.9", *FAST_DRIVE]) == 2
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["attractor", "crosscheck", "lyapunov", "poincare", "simulate", "spectrum"])
def test_commands_that_integrate_refuse_a_drive_too_fast(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, *FAST_DRIVE, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: out-of-range value: 'h_max' must be finite and >= h_min=1e-12, "
        "got 6.283185307179586e-13\n")
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_every_command_refuses_an_invalid_step_key(command, tmp_path, capsys):
    for key in ("abs_tol", "h_init", "h_min", "h_max", "safety"):
        code, text = run_cli([command, "--energy", "1", f"{cli._flag(key)}=-1"], tmp_path)
        assert (code, text) == (1, "")
        assert f"'{key}'" in capsys.readouterr().err


def test_melnikov_quadrature_failure_exits_2(capsys):
    # 20000 pieces cannot resolve this drive across the orbit: exit 2 in
    # well under a second, not a value taken from aliased samples
    argv = ["melnikov", "--lambda", "1", "--energy", "1.1", "--de1", "1", "--omega", "3000"]
    assert main(argv) == 2
    assert "did not converge in 20000 pieces" in capsys.readouterr().err


def test_spectrum_header_and_discard(tmp_path):
    code, text = run_cli(
        ["spectrum", "--preset", "fig7_left", "--n-periods", "40", "--discard", "8"],
        tmp_path,
    )
    assert code == 0
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "freq,power"
    assert float(body[1].split(",")[0]) == 0.0


@pytest.mark.parametrize(
    "args, count",
    [(["--t-end", "0.2", "--sample-dt", "0.1"], 3), (["--t-end", "1", "--sample-dt", "0.1"], 11),
     (["--preset", "fig7_left", "--n-periods", "2", "--discard", "2"], 1)],
    ids=["0.2-3", "1-11", "discard-1"],
)
def test_spectrum_rejects_fewer_than_16_samples(tmp_path, capsys, args, count):
    # the spectrum's own rule: exit 1, no output, and the keys that set the
    # count named
    code, text = run_cli(["spectrum", *args], tmp_path)
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: need at least 16 samples, got {count}: ")
    for key in ("'t_end'", "'n_periods'", "'sample_dt'", "'discard'"):
        assert key in err


@pytest.mark.parametrize(
    "argv, message",
    [(["attractor", "--lambda", "10", "--de1", "3", "--omega-pi", "4", "--n-periods", "4000",
       "--discard", "4000"],
      "need more than discard_periods + 10*max_order = 4120 section points, got 4001"),
     (["spectrum", "--lambda", "10", "--de1", "3", "--omega-pi", "4", "--n-periods", "2000",
       "--discard", "2000"],
      "need at least 16 samples, got 1: the horizon ('t_end' or 'n_periods') less the "
      "'discard' periods, over 'sample_dt', sets the count")],
    ids=["attractor", "spectrum"],
)
def test_too_short_runs_are_refused_before_integrating(argv, message, tmp_path, capsys,
                                                       monkeypatch):
    # the analysis's own count rule, on the rows the run would give,
    # decided before the run starts
    def never(*args, **kwargs):
        raise AssertionError("integrated a run its analysis refuses")

    monkeypatch.setattr(cli, "sample_stroboscopic", never)
    monkeypatch.setattr(cli, "integrate_adaptive", never)
    assert run_cli(argv, tmp_path) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, d0",
    [(["--horizon", "2", "--renorm-interval", "1"], "1e-17"),
     (["--horizon", "2", "--renorm-interval", "1"], "1e-320"),
     (["--horizon", "2", "--renorm-interval", "1"], "0.6"),
     (["--horizon", "1", "--renorm-interval", "1", "--z0", "0.9999999999989"], "1e-8"),
     # a regular self-trapped orbit: a clone this close read rounding as
     # chaos (5.806); the tangent gives 0.039 at any d0
     (["--lambda", "10", "--z0", "0.75", "--horizon", "200"], "1e-15")],
    ids=["clone_on_z0", "clone_on_z0_subnormal", "clone_past_z_1", "z0_within_d0_of_1",
         "regular_orbit_tiny_d0"],
)
def test_lyapunov_d0_is_inert(argv, d0, tmp_path):
    # d0 is checked but enters nothing: any d0 gives the default's exponent
    runs = [run_cli(["lyapunov", *argv, *extra], tmp_path) for extra in ([], ["--d0", d0])]
    assert [code for code, _ in runs] == [0, 0]
    default, chosen = (json.loads(text) for _, text in runs)
    assert chosen["exponent"] == default["exponent"]
    assert chosen["config"]["d0"] == float(d0)
    if "0.75" in argv:
        assert 0.03 < chosen["exponent"] < 0.05


def test_lyapunov_estimate_ignores_d0():
    assert _lyapunov(renorm_interval=1.0, d0=1e-17) == _lyapunov(renorm_interval=1.0)


def test_spectrum_of_exactly_16_samples_runs(tmp_path):
    # 0, 0.1, ..., 1.5: the fewest samples the spectrum takes
    code, text = run_cli(["spectrum", "--t-end", "1.5", "--sample-dt", "0.1"], tmp_path)
    assert code == 0
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 1 + 9


@pytest.mark.parametrize("flag", ["--lambda", "--de0"])
def test_overflowing_classify_prints_no_warning(flag):
    # the fictitious-particle energy overflows in float arithmetic: stderr
    # holds the exit-2 line and nothing else
    done = run_python("-m", "bjj", "classify", flag, "1e308")
    h = {"--lambda": "1.25e+307", "--de0": "5e+307"}[flag]
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"runtime failure: the fictitious-particle energy (1 - h^2)/2 overflows at h={h}\n")


def test_stability_curve_emits_asymptote_row(tmp_path):
    code, text = run_cli(
        ["stability-curve", "--lambda", "4", "--energy", "0.5", "--eta", "0.3",
         "--omega-min", "0.5", "--omega-max", "2", "--n-points", "7"],
        tmp_path,
    )
    assert code == 0
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "omega,de1_critical,branch"
    asym = [l for l in body[1:] if l.split(",")[1] == "inf"]
    assert asym == ["1,inf,0"]


def test_potential_scan_header(tmp_path):
    code, text = run_cli(
        ["potential", "--lambda", "2", "--energy", "1.5", "--n-z", "3"], tmp_path
    )
    assert code == 0
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "z,V"
    assert body[1] == "-1,-0.5"


def test_attractor_json_on_short_run(tmp_path):
    code, text = run_cli(
        ["attractor", "--preset", "fig8_de1_3.0", "--n-periods", "200", "--discard", "50"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["kind"] in {"FixedCycle", "Chaotic", "Undecided"}
    assert doc["n_sections"] == 201


def test_exit_code_1_on_input_errors(tmp_path, capsys):
    assert main(["simulate", "--nonsense"]) == 1
    assert main(["simulate", "--eta", "-1"]) == 1
    assert main(["melnikov", "--lambda", "2", "--energy", "0.1"]) == 1  # no separatrix
    assert main(["melnikov", "--lambda", "2"]) == 1  # missing energy
    assert main(["poincare", "--lambda", "2", "--t-end", "5"]) == 1  # wants periods
    assert main(["poincare", "--lambda", "2", "--n-periods", "5"]) == 1  # undriven
    assert main(["crosscheck", "--lambda", "2", "--eta", "0.1"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["simulate", "--preset", "no_such_preset"]) == 1
    # horizons whose float form overflows name their key
    capsys.readouterr()
    assert main(["simulate", "--de1", "1", "--n-periods", str(10**310)]) == 1
    assert "'n_periods'" in capsys.readouterr().err
    assert main(["simulate", "--t-end", "1e300", "--sample-dt", "1e-300"]) == 1
    assert "'sample_dt'" in capsys.readouterr().err
    # finite horizons with more landing targets than MAX_TARGETS fail before
    # the target list is built
    assert main(["simulate", "--t-end", "1e12", "--sample-dt", "1"]) == 1
    assert "'sample_dt'" in capsys.readouterr().err
    assert main(["poincare", "--lambda", "2", "--de1", "1", "--n-periods", str(10**12)]) == 1
    assert "'n_periods'" in capsys.readouterr().err


# Rules stated once, in the code that uses the value: each command fails
# before it integrates anything and writes no output.
OWNER_RULE_INPUTS = [
    (["poincare", "--lambda", "2", "--n-periods", "5"], "de1 != 0"),
    (["attractor", "--lambda", "2"], "de1 != 0"),
    (["crosscheck", "--lambda", "2", "--eta", "0.1"], "eta"),
    (["lyapunov", "--lambda", "2", "--horizon", "1e300", "--renorm-interval", "1e-300"],
     "'renorm_interval'"),
    # 10^7 intervals, each a driver call in range, but 10^11 steps in all
    (["lyapunov", "--preset", "fig5_de1_3.0", "--horizon", "1e9", "--renorm-interval", "100"],
     "'horizon'=1000000000.0 is more than 1000000000 steps of h_max=0.01"),
    # omega*t leaves the float range at t = 1.7976...: no step reaches t_end
    (["simulate", "--lambda", "1", "--de1", "1", "--omega", "1e308", "--t-end", "1.8",
      "--h-max", "0.05"], "omega=1e+308 times t_end=1.8 leaves the float range"),
]


@pytest.mark.parametrize(
    "argv,needle", OWNER_RULE_INPUTS, ids=[" ".join(a) for a, _ in OWNER_RULE_INPUTS]
)
def test_owner_rules_exit_1_without_output(argv, needle, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_potential_grid_is_capped(monkeypatch, tmp_path, capsys):
    # the cap shrunk to 10; a grid of the real cap is never allocated
    monkeypatch.setattr(bjj.config, "MAX_TARGETS", 10)
    argv = ["potential", "--lambda", "2", "--energy", "0.5"]
    assert run_cli([*argv, "--n-z", "10"], tmp_path)[0] == 0
    with pytest.raises(ConfigError, match="'n_z'"):
        RunConfig.from_values({"n_z": 11})
    capsys.readouterr()
    assert main([*argv, "--n-z", "11", "--out", str(tmp_path / "big")]) == 1
    assert "'n_z'" in capsys.readouterr().err
    assert not (tmp_path / "big").exists()


def test_flag_errors_name_the_flag(capsys):
    assert main(["simulate", "--damping", "sideways"]) == 1
    err = capsys.readouterr().err
    assert "--damping" in err and "population" in err and "velocity" in err
    assert main(["simulate", "--window", "hamming"]) == 1
    err = capsys.readouterr().err
    assert "--window" in err and "hann" in err
    assert main(["simulate", "--z0", "half"]) == 1
    assert "--z0: invalid float value" in capsys.readouterr().err
    assert main(["simulate", "--n-periods", "1.5"]) == 1
    assert "--n-periods: invalid int value" in capsys.readouterr().err


def test_flags_cover_every_key_with_its_help(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for key, (_, help_text) in config._KEYS.items():
        assert f"--{key.replace('_', '-')}" in text
        assert " ".join(help_text.split()) in text


def help_texts(parser):
    """Help text of the parser and of each of its subcommands."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser.format_help(), {name: p.format_help() for name, p in sub.choices.items()}


@pytest.mark.parametrize("name", list(cli._HANDLERS))
def test_one_command_parser_keeps_every_help_text(name):
    # main builds the flags of the invoked subcommand only
    top, subs = help_texts(cli._build_parser(name))
    full_top, full_subs = help_texts(cli._build_parser())
    assert top == full_top
    assert subs[name] == full_subs[name]


@pytest.mark.parametrize("pair", [("--omega", "--omega-pi"), ("--t-end", "--n-periods")])
def test_exclusive_flags_conflict(pair, capsys):
    argv = ["simulate", "--de1", "1", pair[0], "2", pair[1], "3"]
    assert main(argv) == 1
    assert f"set exactly one of {pair[0]} / {pair[1]}" in capsys.readouterr().err


def test_exit_code_2_on_numerical_failure(capsys):
    # a step-size floor combined with an unattainable tolerance underflows
    assert main(["simulate", "--lambda", "10", "--t-end", "1",
                 "--h-min", "0.05", "--h-max", "0.05", "--h-init", "0.05",
                 "--abs-tol", "1e-16", "--rel-tol", "1e-16"]) == 2
    # finite parameters whose trial stages overflow to inf/NaN at any step
    for flag in ("--lambda", "--de0"):
        capsys.readouterr()
        assert main(["simulate", flag, "1e308", "--t-end", "1"]) == 2
        err = capsys.readouterr().err
        assert "t=" in err and "h_min=" in err


def test_every_step_recording_is_capped(monkeypatch, tmp_path, capsys):
    # the cap shrunk to one short run's row count; the real one is never run
    argv = ["simulate", "--lambda", "2", "--t-end", "1"]
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    rows = sum(not line.startswith("#") for line in text.splitlines()) - 1
    monkeypatch.setattr(bjj.integrate, "MAX_TARGETS", rows)
    assert run_cli(argv, tmp_path, "again") == (0, text)
    monkeypatch.setattr(bjj.integrate, "MAX_TARGETS", rows - 1)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "t=" in err and f"after {rows - 1} rows" in err


def test_crosscheck_json(tmp_path):
    code, text = run_cli(
        ["crosscheck", "--lambda", "2", "--de0", "0.3", "--z0", "0.4", "--t-end", "10"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["max_abs_dz"] < 1e-7
    assert doc["n_compared"] == 201


@pytest.mark.parametrize(
    "name",
    [n[:-4] for n in PRESETS],
)
def test_presets_run_reduced(name, tmp_path):
    """Every preset drives its natural subcommand end to end, and its
    output's echo replays it byte for byte.

    Attractor/section presets run with shortened horizons here; the
    full-scale physics of the fig5/fig8/fig9 families is exercised by the
    acceptance suite.
    """
    if name.startswith(("fig1",)):
        args = ["potential", "--preset", name]
    elif name.startswith("fig3"):
        args = ["stability-curve", "--preset", name, "--n-points", "12"]
    elif name.startswith("fig4"):
        args = ["simulate", "--preset", name, "--t-end", "5"]
    elif name.startswith(("fig5", "fig6")):
        args = ["poincare", "--preset", name, "--n-periods", "25"]
    elif name.startswith("fig7"):
        args = ["spectrum", "--preset", name, "--n-periods", "30"]
    else:  # fig8 / fig9 attractor families
        args = ["attractor", "--preset", name, "--n-periods", "150", "--discard", "20"]
    code, text = run_cli(args, tmp_path)
    assert code == 0 and text
    assert_replays(args[0], text, tmp_path)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports bjj from the package under test."""
    src = str(Path(bjj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


PUBLIC_API = {
    "AttractorReport", "BjjError", "ConfigError", "CrosscheckReport", "DampingKind",
    "MotionClass", "PhaseState", "PotentialShape", "QuadratureError", "Regime", "RunConfig",
    "SeparatrixFrame", "SingularityError", "Spectrum", "StabilityCurve",
    "StepControl", "StepUnderflowError", "TOL_SEP", "Trajectory", "TrapParams",
    "TwoModeTrajectory", "Z_GUARD", "__version__", "advance",
    "classify_regime", "crosscheck_max_dz",
    "default_control", "detect_frequency_locking", "dominant_bin", "drive_coefficient",
    "duffing_residual", "effective_energy", "effective_potential", "epsilon1",
    "frame_from_initial", "hamiltonian", "integrate_adaptive", "integrate_twomode",
    "lyapunov_estimate", "make_rate", "melnikov_closed", "melnikov_numeric", "merge_sources",
    "parse_config", "parse_kv_text", "power_spectrum",
    "running_stability_integral", "sample_stroboscopic", "section_from_trajectory",
    "separatrix_accel", "separatrix_orbit", "separatrix_velocity", "stability_curve",
    "time_average_z", "trap_asymmetry",
}


def test_public_api_keeps_its_55_names():
    # each module declares its names once; the package re-exports them
    assert len(bjj.__all__) == len(PUBLIC_API) == 55
    assert set(bjj.__all__) == PUBLIC_API
    namespace: dict = {}
    exec("from bjj import *", namespace)
    assert PUBLIC_API <= namespace.keys() and "annotations" not in namespace


def test_import_leaves_scipy_integrate_unloaded():
    proc = run_python("-c", "import sys, bjj; print('scipy.integrate' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_melnikov_work_loads_no_scipy():
    # the quadrature is the package's own; scipy is a test dependency only
    proc = run_python("-c", "import os, sys, bjj; from bjj import cli; "
                      "f = bjj.SeparatrixFrame(lam=4.0, h=0.5); "
                      "bjj.melnikov_numeric(f, bjj.TrapParams(lam=4.0, de1=0.3, omega=2.5)); "
                      "assert cli.main(['melnikov', '--lambda', '4', '--energy', '0.5', "
                      "'--eta', '0.1', '--out', os.devnull]) == 0; "
                      "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_section_analysis_leaves_scipy_spatial_unloaded():
    # the section spread comes from analysis' own hull
    proc = run_python("-c", "import math, sys, bjj; "
                      "p = bjj.TrapParams(lam=10.0, de1=3.0, omega=4 * math.pi, eta=0.01); "
                      "sec = bjj.sample_stroboscopic(p, bjj.PhaseState(0.0, 0.5, 0.0), 60); "
                      "bjj.detect_frequency_locking(sec, max_order=4, discard_periods=10); "
                      "print('scipy.spatial' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_only_lyapunov_work_loads_the_tangent_transform():
    # bjj._jvp, the derivative transform, costs about 0.5 MiB of peak RSS
    # when it loads with the other drivers: the reduced, oracle and advance
    # runs leave it unloaded, and the first Lyapunov estimate imports it
    proc = run_python("-c", "import sys, bjj; "
                      "p = bjj.TrapParams(lam=10.0); s0 = bjj.PhaseState(0.0, 0.5, 0.3); "
                      "bjj.integrate_adaptive(p, s0, 1.0); bjj.integrate_twomode(p, s0, 1.0); "
                      "bjj.advance(p, s0, 1.0); before = 'bjj._jvp' in sys.modules; "
                      "bjj.lyapunov_estimate(p, 0.5, 0.3, horizon=1.0); "
                      "print(before, 'bjj._jvp' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_python_m_bjj_runs_the_cli():
    proc = run_python("-m", "bjj", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: bjj" in proc.stdout


def test_import_compiles_no_stepper_and_reads_no_source():
    # the inliner is imported, and reads _drive's source, on the first
    # integration, not with bjj
    proc = run_python("-c", "import linecache, sys, bjj; print("
                      "'bjj._specialise' in sys.modules, "
                      "any(k.endswith('integrate.py') for k in linecache.cache))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
    proc = run_python("-c", "import bjj, bjj._specialise as s; print(*(b.cache_info().currsize "
                      "for b in (s._drive_source, s._called, s._inline)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]


# --- every invocation ends in exit 0 with finite data, 1 or 2 ----------------

WILD = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e308)


def knob(lo, hi, wild=WILD):
    """Mostly a float in [lo, hi]; one draw in four a value from wild."""
    return st.one_of(*[st.floats(lo, hi)] * 3, st.sampled_from(wild))


CLI_KNOBS = {
    "lambda": knob(-20.0, 20.0),
    "de0": knob(-5.0, 5.0),
    "de1": knob(-8.0, 8.0),
    "omega": knob(0.5, 40.0),
    "eta": knob(0.0, 1.0),
    "damping": st.sampled_from(["none", "population", "velocity", "viscous"]),
    "z0": knob(-1.0, 1.0),
    "phi0": knob(-10.0, 10.0),
    "sample_dt": knob(0.01, 1.0),
    "abs_tol": knob(1e-14, 1e-3),
    "rel_tol": knob(1e-14, 1e-3),
    "h_init": knob(1e-6, 0.1),
    "h_min": knob(1e-14, 1e-6),
    "h_max": knob(1e-3, 0.1),
    "safety": knob(0.1, 0.99),
    "d0": knob(1e-10, 1e-4),
    "renorm_interval": knob(0.05, 1.0),
}
SHORT = (math.nan, math.inf, -1.0, 0.0)
# The keys each command always gets: a small horizon keeps the run short.
CLI_BASES = {
    "simulate": {"t_end": knob(0.1, 3.0, SHORT)},
    "poincare": {"n_periods": st.integers(0, 4), "de1": knob(-8.0, 8.0)},
    "lyapunov": {"horizon": knob(0.5, 5.0, SHORT)},
    "crosscheck": {"t_end": knob(0.1, 3.0, SHORT)},
    "melnikov": {"energy": knob(-2.0, 2.0)},
    "stability-curve": {"energy": knob(-2.0, 2.0), "n_points": st.integers(1, 4)},
    "potential": {"energy": knob(-2.0, 2.0), "n_z": st.integers(1, 4)},
    "classify": {"energy": knob(-2.0, 2.0)},
}
CLI_BUDGET_S = 10.0


class Overtime(BaseException):
    """Raised by the alarm when a run outlasts its budget."""


def _overtime(signum, frame):
    raise Overtime


@st.composite
def cli_runs(draw):
    command = draw(st.sampled_from(sorted(CLI_BASES)))
    values = draw(st.fixed_dictionaries(CLI_BASES[command]))
    for knob_key in draw(st.lists(st.sampled_from(sorted(CLI_KNOBS)), max_size=4, unique=True)):
        values[knob_key] = draw(CLI_KNOBS[knob_key])
    return [command, *(f"{cli._flag(k)}={v}" for k, v in values.items())]


def finite_data(command, text):
    """Whether every data value of a command's output is a finite number.

    classify's kind and potential shape are words.  A stability curve's
    de1_critical is inf on its asymptote rows only, which number the
    asymptotes 0, 1, ... in their branch column.
    """
    if command in {"simulate", "poincare", "potential", "stability-curve"}:
        lines = [line for line in text.splitlines() if not line.startswith("#")][1:]
        rows = [[float(x) for x in line.split(",")] for line in lines]
        if command == "stability-curve":
            poles = [b for _, d, b in rows if d == math.inf]
            if poles != list(range(len(poles))):
                return False
            rows = [[w, 0.0 if d == math.inf else d, b] for w, d, b in rows]
        return bool(rows) and all(math.isfinite(x) for r in rows for x in r)
    payload = json.loads(text)
    del payload["config"]
    if command == "classify":
        words = payload.pop("kind"), payload.pop("potential_shape")
        if not all(isinstance(w, str) for w in words):
            return False
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in payload.values())


@given(cli_runs())
@example(["simulate", "--t-end=1.0", "--lambda=1e+308"])
@example(["poincare", "--n-periods=2", "--de1=0.0"])
@example(["crosscheck", "--t-end=1.0", "--eta=0.5"])
@example(["lyapunov", "--horizon=2.0", "--phi0=1e+308"])
@example(["lyapunov", "--horizon=2.0", "--d0=1e+308"])
@example(["potential", "--lambda=4", "--energy=0.9", "--de1=1", "--omega=2e11"])
@example(["classify", "--de1=1", "--omega=2e11"])
@example(["stability-curve", "--lambda=4", "--energy=0.9", "--eta=0.1", "--de1=1",
          "--omega=2e11", "--n-points=3"])
@example(["melnikov", "--lambda=4", "--energy=0.9", "--de1=1", "--omega=2e11"])
@example(["melnikov", "--lambda=1e200", "--energy=1"])
@example(["stability-curve", "--lambda=1e200", "--energy=1", "--eta=0.1"])
@example(["stability-curve", "--lambda=2", "--energy=0.5000005", "--eta=0.1", "--n-points=5"])
@example(["melnikov", "--lambda=4", "--energy=0.9", "--c0=10", "--omega=1e308", "--eta=0.1"])
# phi runs to the float range, where only steps of about 1e-8 pass: the
# step budget ends each run with exit 2
@example(["poincare", "--n-periods=2", "--de1=1e+308"])
@example(["lyapunov", "--horizon=5.0", "--renorm-interval=0.05", "--de1=1e+308"])
# a Rabi orbit that reaches the guard band near z = -1 at t = 2.094 and stays
# there on steps of about 5e-11 that no longer move z: the budget ends it
@example(["simulate", "--t-end=5.0", "--lambda=0.0", "--z0=0.5", "--phi0=1.5707963267948966"])
# spans of about 10^297 steps of h_max, which once ran without end: the
# driver refuses each before its first step, with exit 1
@example(["simulate", "--preset", "fig5_de1_3.0", "--t-end", "1e300", "--sample-dt", "1e295"])
@example(["lyapunov", "--preset", "fig5_de1_3.0", "--horizon", "1e302",
          "--renorm-interval", "1e296"])
@settings(max_examples=100)
def test_cli_ends_in_one_of_three_ways(argv):
    # exit 0 with finite data, 1 for the input or 2 for the numerics, each
    # within a budget: a hang, a raw traceback or a NaN row is a bug
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, CLI_BUDGET_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if code == 0:
        assert finite_data(argv[0], out.getvalue()), out.getvalue()[-400:]
    else:
        assert (code, err.getvalue().split(":")[0]) in {(1, "error"), (2, "runtime failure")}
