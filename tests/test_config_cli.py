import argparse
import hashlib
import io
import json
import math
import os
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
    p = bjj.TrapParams(lam=10.0, de1=1.0)
    n = np.arange(500)
    zeros = np.zeros(500)
    sec = bjj.SectionPoints(params=p, control=default_control(p), period=p.period, n=n,
                            t=n * p.period, z=zeros, dz_dt=zeros)
    return bjj.detect_frequency_locking(sec, **{"discard_periods": 10, **kw})


def _stability_curve(**kw):
    return bjj.stability_curve(bjj.SeparatrixFrame(lam=4.0, h=0.5), 0.3, **kw)


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


FLOAT_KEYS = sorted(k for k, (parse, _) in config._KEYS.items() if parse is config._parse_float)


@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from(FLOAT_KEYS), st.floats(), max_size=4))
def test_from_values_rejects_or_returns_finite(values):
    try:
        cfg = RunConfig.from_values(values)
    except ConfigError:
        return
    assert all(math.isfinite(v) for v in vars(cfg).values() if isinstance(v, float))
    ctl = cfg.control()
    assert all(math.isfinite(getattr(ctl, f.name)) for f in fields(StepControl))


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
        # restarted advance calls: the tilt is recomputed after every landing
        (["lyapunov", "--preset", "fig5_de1_7.5", "--horizon", "5"],
         "a85e20d3286b2430c6d09f2cb7cbd7f12019463ebb89b365eb2d5af2c4206183"),
    ],
    ids=["poincare", "simulate", "crosscheck", "attractor_damped", "simulate_undriven",
         "lyapunov"],
)
def test_cli_outputs_keep_pinned_bytes(tmp_path, args, digest):
    # SHA-256 of outputs recorded before the driver was written out stage
    # by stage (the first three) and before the driver took over the tilt
    # (the last three); a stepper change that moves one bit of an orbit
    # shows here.
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
    """Every preset drives its natural subcommand end to end.

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


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports bjj from the package under test."""
    src = str(Path(bjj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


PUBLIC_API = {
    "AttractorReport", "BjjError", "ConfigError", "CrosscheckReport", "DampingKind",
    "MotionClass", "PhaseState", "PotentialShape", "QuadratureError", "Regime", "RunConfig",
    "SectionPoints", "SeparatrixFrame", "SingularityError", "Spectrum", "StabilityCurve",
    "StepControl", "StepUnderflowError", "TOL_SEP", "Trajectory", "TrapParams",
    "TwoModeState", "TwoModeTrajectory", "Z_GUARD", "__version__", "advance",
    "amplitudes_from_phase", "basis_z11", "basis_z12", "classify_regime", "crosscheck_max_dz",
    "default_control", "detect_frequency_locking", "dominant_bin", "drive_coefficient",
    "duffing_residual", "effective_energy", "effective_potential", "epsilon1",
    "frame_from_initial", "hamiltonian", "integrate_adaptive", "integrate_twomode",
    "lyapunov_estimate", "make_rate", "melnikov_closed", "melnikov_numeric", "merge_sources",
    "parse_config", "parse_kv_text", "power_spectrum", "project_trajectory",
    "running_stability_integral", "sample_stroboscopic", "section_from_trajectory",
    "separatrix_accel", "separatrix_orbit", "separatrix_velocity", "stability_curve",
    "time_average_z", "trap_asymmetry",
}


def test_public_api_keeps_its_61_names():
    # each module declares its names once; the package re-exports them
    assert len(bjj.__all__) == len(PUBLIC_API) == 61
    assert set(bjj.__all__) == PUBLIC_API
    namespace: dict = {}
    exec("from bjj import *", namespace)
    assert PUBLIC_API <= namespace.keys() and "annotations" not in namespace


def test_import_leaves_scipy_integrate_unloaded():
    proc = run_python("-c", "import sys, bjj; print('scipy.integrate' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    proc = run_python("-c", "import bjj, bjj._specialise as s; print(len(s._DRIVERS))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


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
    """Whether every data value of a command's output is a finite number."""
    if command in {"simulate", "poincare"}:
        rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
        return bool(rows) and all(math.isfinite(float(x)) for r in rows for x in r.split(","))
    payload = json.loads(text)
    del payload["config"]
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in payload.values())


@given(cli_runs())
@example(["simulate", "--t-end=1.0", "--lambda=1e+308"])
@example(["poincare", "--n-periods=2", "--de1=0.0"])
@example(["crosscheck", "--t-end=1.0", "--eta=0.5"])
@example(["lyapunov", "--horizon=2.0", "--phi0=1e+308"])
@settings(max_examples=60)
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
