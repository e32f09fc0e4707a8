import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bangbang
from bangbang import (
    PRESETS,
    ConfigError,
    Regime,
    Trajectory,
    TrajectoryRow,
    export_csv,
    g_adiabatic,
    load_config,
    run_scenario,
)
from bangbang.cli import EXIT_NO_ROOT, EXIT_OK, main
from bangbang.runner import CSV_HEADER

SQ2 = 1.0 / math.sqrt(2.0)


# ------------------------------------------------------------------ presets

def test_preset_fig1a_contents():
    cfg = load_config(preset="fig1a")
    assert cfg.regime is Regime.ADIABATIC
    assert cfg.gamma == 1.0
    assert cfg.step_T == 0.5
    assert cfg.noise.delta_I == 0.0
    assert cfg.c1 == pytest.approx(1j * SQ2)
    assert cfg.c2 == pytest.approx(SQ2)


def test_preset_fig2d_contents():
    cfg = load_config(preset="fig2d")
    assert cfg.regime is Regime.THERMAL
    assert cfg.step_T == 1.0
    assert cfg.noise.delta_I == 0.1


def test_all_eight_presets_exist():
    assert sorted(PRESETS) == [
        "fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b", "fig2c", "fig2d",
    ]


# ------------------------------------------------------------------- config

def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(preset="fig9z")


def test_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        load_config(bogus_knob=3)


@pytest.mark.parametrize("field, value", [
    ("hermitize", "false"),
    ("hermitize", 1),
    ("num_steps", 2.7),
    ("n", 2.7),
    ("seed", 2.7),
    ("num_steps", True),
    ("gamma", True),
    ("num_steps", "24"),
    ("step_T", "1e-3"),
    ("seed", "7"),
    ("initial", "0.5"),
    ("out", 5),
])
def test_config_file_values_of_the_wrong_type_rejected(field, value, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: value}), encoding="utf-8")
    with pytest.raises(ConfigError, match=field):
        load_config(path=str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_integral_float_counts_are_accepted(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"num_steps": 16.0, "hermitize": True}), encoding="utf-8")
    cfg = load_config(path=str(path))
    assert cfg.num_steps == 16 and isinstance(cfg.num_steps, int)
    assert cfg.hermitize is True


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "upper_cut_multiplier",
                                 "singular_halfwidth"])
def test_removed_quadrature_keys_are_unknown(key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: 1e-10}), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "unknown configuration key" in err


def test_null_field_in_file_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"gamma": None}), encoding="utf-8")
    with pytest.raises(ConfigError, match="gamma"):
        load_config(path=str(path))


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"regime": "thermal", "gamma": 0.5, "step_T": 0.25,
                    "num_steps": 16, "seed": 42, "initial": [0.0, SQ2, SQ2, 0.0]}),
        encoding="utf-8",
    )
    cfg = load_config(path=str(path))
    assert cfg.regime is Regime.THERMAL
    assert cfg.gamma == 0.5
    assert cfg.num_steps == 16
    assert cfg.noise.seed == 42


def test_validation_errors_name_the_field():
    with pytest.raises(ConfigError, match="step_T"):
        load_config(step_T=-1.0)
    with pytest.raises(ConfigError, match="num_steps"):
        load_config(num_steps=0)
    with pytest.raises(ConfigError, match="regime"):
        load_config(regime="sideways")
    with pytest.raises(ConfigError, match="normalized"):
        load_config(initial=[1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ConfigError, match="gamma"):
        load_config(gamma=-2.0)
    with pytest.raises(ConfigError, match="initial"):
        load_config(initial=[1.0, 0.0])
    with pytest.raises(ConfigError, match="thermal_offdiag"):
        load_config(thermal_offdiag="sometimes")


def test_cannot_read_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(path="/nonexistent/cfg.json")


# ----------------------------------------------------------------- scenarios

def test_zero_gamma_controlled_equals_unitary():
    cfg = load_config(preset="fig1a", gamma=0.0, num_steps=16)
    result = run_scenario(cfg)
    assert result.run.completed
    for row in result.trajectory.rows:
        assert row.controlled == row.unitary


def test_uncontrolled_column_is_free_decay():
    cfg = load_config(preset="fig1a", num_steps=8)
    result = run_scenario(cfg)
    series = result.trajectory.component_series("rho12_im", "uncontrolled")
    for k, value in enumerate(series, start=1):
        g = g_adiabatic(k * cfg.step_T, cfg.model_params())
        assert value == pytest.approx(0.5 * math.exp(-g), abs=1e-12)


def test_uncontrolled_column_independent_of_noise_and_seed():
    a = run_scenario(load_config(preset="fig1a", num_steps=8))
    b = run_scenario(load_config(preset="fig1b", num_steps=8, seed=991))
    ua = [r.uncontrolled for r in a.trajectory.rows]
    ub = [r.uncontrolled for r in b.trajectory.rows]
    assert ua == ub


def test_aborting_scenario_reports_step(tmp_path):
    # a diagonal-tilted state at the figure pulse rate has live but
    # insufficient coherence response: no restoring root exists
    cfg = load_config(preset="fig1a", num_steps=16,
                      initial=[0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0])
    result = run_scenario(cfg)
    assert not result.run.completed
    assert result.run.aborted_at == 4
    out = tmp_path / "aborted.csv"
    export_csv(result.trajectory, str(out))
    text = out.read_text(encoding="utf-8")
    assert "# aborted at step 4: NoRootInInterval" in text


def test_metadata_echoes_resolved_defaults():
    result = run_scenario(load_config(preset="fig1a", num_steps=8))
    meta = result.trajectory.metadata
    assert meta["preset"] == "fig1a"
    assert meta["rng"] == "numpy-PCG64"
    assert "omega_c" in meta["artifact_defaults"]
    overridden = run_scenario(load_config(preset="fig1a", num_steps=8, omega_c=9.0))
    assert "omega_c" not in overridden.trajectory.metadata["artifact_defaults"]


# ----------------------------------------------------------------------- csv

def test_csv_format(tmp_path):
    cfg = load_config(preset="fig1a", gamma=0.0, num_steps=1)
    result = run_scenario(cfg)
    path = tmp_path / "run.csv"
    export_csv(result.trajectory, str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0] == CSV_HEADER
    assert len(data) == 1 + 8  # header + one step of eight components
    first = data[1].split(",")
    assert first[0] == "1"
    assert first[2] == "rho11_re"
    assert float(first[3]) == float(first[5])  # controlled equals unitary
    assert any(l.startswith("# seed = ") for l in meta)


def test_csv_rows_ordered_by_step_then_component(tmp_path):
    from bangbang import COMPONENT_LABELS

    cfg = load_config(preset="fig1a", gamma=0.0, num_steps=3)
    rows = run_scenario(cfg).trajectory.rows
    assert len(rows) == 3 * 8
    for block_start in range(0, len(rows), 8):
        block = rows[block_start: block_start + 8]
        assert [r.step for r in block] == [block_start // 8 + 1] * 8
        assert tuple(r.component for r in block) == COMPONENT_LABELS


def test_csv_byte_identical_for_identical_config(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        cfg = load_config(preset="fig1b", num_steps=8)
        export_csv(run_scenario(cfg).trajectory, str(path))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_floats_round_trip(tmp_path):
    cfg = load_config(preset="fig1b", num_steps=8)
    result = run_scenario(cfg)
    path = tmp_path / "rt.csv"
    export_csv(result.trajectory, str(path))
    data = [
        l for l in path.read_text(encoding="utf-8").splitlines()
        if l and not l.startswith("#")
    ][1:]
    for row, line in zip(result.trajectory.rows, data):
        cells = line.split(",")
        assert float(cells[1]) == row.tau
        assert float(cells[5]) == row.controlled
        assert float(cells[7]) == row.applied_I


def test_writes_into_a_run_do_not_reach_a_later_run_of_its_scenario(tmp_path):
    # the seeds of a scenario share its solve: a write into one run's arrays either
    # raises or stays in that run
    cfg = load_config(preset="fig1b", num_steps=24, seed=5)
    first = run_scenario(cfg)
    export_csv(first.trajectory, str(tmp_path / "first.csv"))
    arrays = {name: getattr(first.run, name) for name in ("values", "ages", "applied_sums")}
    before = {name: array.tobytes() for name, array in arrays.items()}
    for array in arrays.values():
        try:
            array[...] = 3
        except ValueError:      # read-only
            pass
    for column in (first.run.pulses.solved_I, first.run.pulses.applied_I):
        with pytest.raises(TypeError):
            column[0] = 3.0
    later = run_scenario(cfg)
    export_csv(later.trajectory, str(tmp_path / "later.csv"))
    assert (tmp_path / "later.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
    assert {name: getattr(later.run, name).tobytes() for name in arrays} == before


def test_seeds_run_in_one_process_write_what_fresh_interpreters_write(tmp_path):
    # seeds A, B, A one after the other, against each seed alone in a fresh interpreter
    src = os.path.dirname(os.path.dirname(bangbang.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = ["run", "--preset", "fig2b", "--num-steps", "24"]
    fresh = {}
    for seed in (7, 8):
        path = tmp_path / f"fresh-{seed}.csv"
        subprocess.run([sys.executable, "-m", "bangbang.cli", *args, "--seed", str(seed),
                        "--out", str(path)], env=env, check=True, capture_output=True)
        fresh[seed] = path.read_bytes()
    for k, seed in enumerate((7, 8, 7)):
        path = tmp_path / f"warm-{k}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*args, "--seed", str(seed), "--out", str(path)]) == EXIT_OK
        assert path.read_bytes() == fresh[seed]


def test_a_warm_cache_keeps_the_sign_of_a_zero(tmp_path):
    # -0.0 == 0.0, so two states that differ only there look alike to a cache key;
    # their unitary and free-decay columns print the sign
    printed = []
    for zero in (0.0, -0.0):
        cfg = load_config(regime="adiabatic", step_T=1e-4, num_steps=8,
                          initial=[zero, 0.6, 0.8, zero])
        export_csv(run_scenario(cfg).trajectory, str(tmp_path / "run.csv"))
        with open(tmp_path / "run.csv", encoding="utf-8") as fh:
            rows = csv.DictReader(line for line in fh if not line.startswith("#"))
            first = next(r for r in rows if r["component"] == "rho12_re")
        printed.append((first["unitary"], first["uncontrolled"]))
    assert printed == [("0.0", "0.0"), ("-0.0", "-0.0")]


def test_hand_built_trajectory_exports_row_by_row(tmp_path):
    rows = [TrajectoryRow(1, 0.5, "rho11_re", 0.5, 0.25, 0.125, 0.0, 0.1),
            TrajectoryRow(1, 0.5, "rho11_im", 0.0, -0.0, 1e-300, -0.0, 0.1),
            TrajectoryRow(2, 1.0, "rho11_re", 1, 2, 3, -0.0, 0.1)]
    path = tmp_path / "hand.csv"
    export_csv(Trajectory(rows=rows, metadata={"note": "hand"}), str(path))
    assert path.read_text(encoding="utf-8").splitlines()[2:] == [
        "1,0.5,rho11_re,0.5,0.25,0.125,0.0,0.1",
        "1,0.5,rho11_im,0.0,-0.0,1e-300,-0.0,0.1",
        "2,1.0,rho11_re,1.0,2.0,3.0,-0.0,0.1",
    ]


def test_empty_trajectory_exports_header_only(tmp_path):
    traj = Trajectory(rows=[], metadata={"note": "empty"})
    path = tmp_path / "empty.csv"
    export_csv(traj, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["# note = empty", CSV_HEADER]


# ----------------------------------------------------------------------- cli

def test_cli_presets_listing(capsys):
    assert main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fig1a" in out and "fig2d" in out


def test_cli_run_preset(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["run", "--preset", "fig1a", "--gamma", "0", "--num-steps", "8",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_no_root_exit_code(tmp_path, capsys):
    code = main([
        "run", "--preset", "fig1a", "--num-steps", "8",
        "--initial", f"0,{math.sqrt(0.8)},{math.sqrt(0.2)},0",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_NO_ROOT


def test_cli_config_error_exit_code(capsys):
    assert main(["run", "--gamma", "-3"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--initial", "nan,0,1,0"],
    ["--step-T", "nan"],
    ["--step-T", "inf"],
    ["--seed", "-1"],
    ["--noise-delta", "nan"],
    ["--out", "{tmp}/missing-dir/x.csv"],
    ["--omega-c", "1e300"],
    ["--beta0", "1e300"],
    ["--regime", "thermal", "--omega12", "1e300"],
], ids=["initial-nan", "step-T-nan", "step-T-inf", "seed-negative", "noise-delta-nan",
        "out-unwritable", "kernel-overflow", "series-weight-overflow",
        "thermal-partition-too-long"])
def test_cli_boundary_inputs_fail_with_one_line(extra, tmp_path, capsys):
    args = ["run", "--preset", "fig1a", "--gamma", "0", "--num-steps", "8"]
    code = main(args + [a.replace("{tmp}", str(tmp_path)) for a in extra])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err



@st.composite
def cli_inputs(draw):
    """A run's inputs, at most one of them out of its domain."""
    # grids, so that the derandomized draws spread over the whole range
    t = draw(st.integers(0, 20)) / 20.0
    phase = draw(st.integers(-8, 8)) * math.pi / 8.0
    values = dict(
        regime=draw(st.sampled_from(["adiabatic", "thermal"])),
        step_T=10.0 ** (draw(st.integers(-60, 10)) / 10.0),
        num_steps=draw(st.integers(1, 16)),
        gamma=draw(st.floats(0.0, 5.0)),
        delta_I=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        initial=[math.sqrt(t) * math.cos(phase), math.sqrt(t) * math.sin(phase),
                 math.sqrt(1.0 - t), 0.0],
    )
    broken = draw(st.sampled_from([None, None, None, "gamma", "delta_I", "seed", "initial"]))
    if broken == "initial":   # unnormalised, negative, NaN or inf amplitudes
        values["initial"] = draw(st.lists(st.one_of(
            st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, -math.inf])),
            min_size=4, max_size=4))
    elif broken == "seed":
        values["seed"] = draw(st.sampled_from([-1, 2 ** 64]))
    elif broken is not None:
        values[broken] = draw(st.sampled_from([-0.5, math.nan, math.inf]))
    return values


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cli_inputs())
@example(dict(regime="adiabatic", step_T=0.5, num_steps=8, gamma=1.0, delta_I=0.0, seed=1,
              initial=[0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0]))   # aborts: exit 2
@example(dict(regime="thermal", step_T=5e-5, num_steps=16, gamma=1.0, delta_I=0.1, seed=5,
              initial=[0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0]))   # live pulses, g up to 0.02
def test_cli_run_ends_in_a_documented_exit_code(values):
    # any input either runs or is rejected with an exit code; a completed run's
    # free decay keeps the trace at every step
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.csv")
        args = ["run", f"--regime={values['regime']}", f"--step-T={values['step_T']!r}",
                f"--num-steps={values['num_steps']}", f"--gamma={values['gamma']!r}",
                f"--noise-delta={values['delta_I']!r}", f"--seed={values['seed']}",
                "--initial=" + ",".join(map(repr, values["initial"])), f"--out={out}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (EXIT_OK, 1, EXIT_NO_ROOT)
        assert "Traceback" not in err.getvalue()
        if code != EXIT_OK:
            return
        traces = free_decay_traces(out)
    assert len(traces) == values["num_steps"]
    for total in traces:
        assert abs(total - 1.0) <= 1e-12


def free_decay_traces(path) -> list[float]:
    """Per step of the CSV at `path`, rho11_re + rho22_re of the `uncontrolled` column."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    diagonal = {}
    for row in rows:
        if row["component"] in ("rho11_re", "rho22_re"):
            diagonal[row["step"]] = diagonal.get(row["step"], 0.0) + float(row["uncontrolled"])
    return list(diagonal.values())


# a value of any JSON type; numbers stay small enough that a count is cheap to run
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-5, 10 ** 6), st.floats(),
                  st.text(max_size=6), st.lists(st.floats(-2.0, 2.0), max_size=5),
                  st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
_PLAUSIBLE = {
    "regime": st.sampled_from(["adiabatic", "thermal"]),
    "gamma": st.floats(0.0, 5.0),
    "n": st.integers(1, 5),
    "omega_c": st.floats(0.5, 20.0),
    "beta0": st.floats(0.1, 5.0),
    "omega12": st.floats(0.1, 5.0),
    "step_T": st.integers(-60, 5).map(lambda k: 10.0 ** (k / 10.0)),
    "num_steps": st.integers(1, 16),
    "initial": st.tuples(st.integers(0, 20), st.integers(-8, 8)).map(
        lambda tp: [math.sqrt(tp[0] / 20) * math.cos(tp[1] * math.pi / 8),
                    math.sqrt(tp[0] / 20) * math.sin(tp[1] * math.pi / 8),
                    math.sqrt(1.0 - tp[0] / 20), 0.0]),
    "delta_I": st.floats(0.0, 1.0),
    "seed": st.integers(0, 2 ** 64 - 1),
    "hermitize": st.booleans(),
    "root_tol": st.integers(-15, -3).map(lambda k: 10.0 ** k),
    "thermal_offdiag": st.sampled_from(["consistent", "folded"]),
    "out": st.just("ignored.csv"),
}


@st.composite
def config_files(draw):
    """The text of a config file: mostly a JSON object whose keys are each left out or
    plausible, up to two of them of any JSON type, sometimes with an unknown key; else
    any JSON or text."""
    kind = draw(st.sampled_from(["object"] * 8 + ["json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=20))
    if kind == "json":
        return json.dumps(draw(_JUNK))
    broken = draw(st.one_of(st.just(set()), st.sets(st.sampled_from(sorted(_PLAUSIBLE)),
                                                    min_size=1, max_size=2)))
    values = {}
    for key, plausible in _PLAUSIBLE.items():
        if key in broken:
            # a count of any size is valid JSON but runs for as long as it asks
            values[key] = draw(st.integers(-5, 16) if key == "num_steps" else _JUNK)
        elif draw(st.booleans()):
            values[key] = draw(plausible)
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.text(min_size=1, max_size=6))] = draw(_JUNK)
    return json.dumps(values)


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_files())
@example(text='{"regime": "thermal", "num_steps": 16, "step_T": 5e-5, "delta_I": 0.1,'
         ' "initial": [0.0, 0.8944271909999159, 0.4472135954999579, 0.0]}')
@example(text='{"num_steps": 8, "initial": [0.0, 0.8944271909999159, 0.4472135954999579, 0.0]}')
def test_any_config_file_runs_or_ends_in_a_documented_exit_code(text, tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "run.csv"
    config.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(config), "--out", str(out)])
    assert code in (EXIT_OK, 1, EXIT_NO_ROOT)
    assert "Traceback" not in err.getvalue()
    if code != EXIT_OK:
        return
    traces = free_decay_traces(out)
    assert traces
    for total in traces:
        assert abs(total - 1.0) <= 1e-12
