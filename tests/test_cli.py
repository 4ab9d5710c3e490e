import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsshare import cli, engine
from nsshare.cli import (
    CSV_HEADER,
    SWEEP_MAX_POINTS,
    ConfigError,
    ExperimentConfig,
    build_config,
    build_parser,
    main,
    parse_angle,
    parse_sweep,
    run_experiment,
    sweep_values,
)
from nsshare.engine import behavior
from nsshare.measurements import gamma_sequence, validity_region
from nsshare.states import build_gghz

from conftest import (
    THETA_ALPHA_GRID,
    bf_closed_form,
    bf_csv_line,
    bf_sweep_values,
    record_lp_calls,
    signaling_probs,
    svetlichny_probs,
    table_object,
    write_table,
)


def test_parse_angle_literals():
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/4") == math.pi / 4
    assert parse_angle("2pi") == 2 * math.pi
    assert parse_angle("3pi/8") == 3 * math.pi / 8
    assert parse_angle("-pi/4") == -math.pi / 4
    assert parse_angle("0.5*pi") == 0.5 * math.pi
    assert parse_angle("PI / 2") == math.pi / 2
    assert parse_angle("0.25") == 0.25
    assert parse_angle("1e-3") == 1e-3
    assert parse_angle(0.7) == 0.7


def test_parse_angle_rejects_garbage():
    for bad in ("pie", "pi/", "two", "pi/4/2", "", "pi/0", "0pi/0", "-2pi/0.0", ".pi", "e5pi",
                "-.pi/2"):
        with pytest.raises(ConfigError, match=f"^cannot parse angle {re.escape(repr(bad))}$"):
            parse_angle(bad)


def test_parse_sweep():
    assert parse_sweep("0.1:0.3:0.1") == (0.1, 0.3, 0.1)
    start, stop, step = parse_sweep("0.01:pi/4:0.01")
    assert stop == math.pi / 4
    with pytest.raises(ConfigError):
        parse_sweep("0.1:0.3")
    with pytest.raises(ConfigError):
        parse_sweep("0.3:0.1:0.1")
    with pytest.raises(ConfigError):
        parse_sweep("0.1:0.3:0")


def test_parse_sweep_refuses_non_finite_bounds():
    for spec, field in (("0.1:0.3:nan", "step"), ("0.1:inf:0.1", "stop"),
                        ("-inf:0.3:0.1", "start"), ("nan:nan:nan", "start"),
                        ((0.1, 0.3, float("inf")), "step")):
        with pytest.raises(ConfigError, match=f"sweep {field} must be finite"):
            parse_sweep(spec)


def test_parse_sweep_refuses_oversized_grid():
    # only parsed: a grid of this size is never built
    for spec in ("0.1:0.3:1e-12", "0:1:5e-7", "0:pi/2:1e-300", (0.0, 1.0, 5e-324)):
        message = f"^sweep {re.escape(repr(spec))} has more than {SWEEP_MAX_POINTS} points"
        with pytest.raises(ConfigError, match=message):
            parse_sweep(spec)
    assert parse_sweep("0:1:2e-6") == (0.0, 1.0, 2e-6)


def test_build_config_refuses_non_finite_values():
    parser = build_parser()
    for argv, field in ((["--epsilon", "nan"], "epsilon"), (["--alpha", "inf"], "alpha"),
                        (["--theta", "nan"], "theta"), (["--delta=-inf"], "delta"),
                        (["--sweep-theta", "0.1:0.3:nan"], "sweep step"),
                        (["--sweep-delta", "0.1:inf:0.1"], "sweep stop")):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            build_config(parser.parse_args(argv))


def test_sweep_values_grid():
    values = sweep_values((0.01, math.pi / 4, 0.01))
    assert len(values) == 78
    assert values[0] == pytest.approx(0.01)
    assert values[-1] == pytest.approx(0.78)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_values_stay_within_the_checked_steps():
    # the slack past stop once was an absolute 1e-12: a tiny-scale axis ran on
    # toward stop + 1e-12, some 1e288 steps away
    values = sweep_values(parse_sweep("1e-300:1e-299:1e-300"))
    assert len(values) == 10 and values[-1] == pytest.approx(1e-299, rel=1e-12)
    # 999,999.9995 steps: at most one value past the last whole step, not 1,000,010 values
    values = sweep_values(parse_sweep("0.5:0.5000001:1e-13"))
    assert len(values) == SWEEP_MAX_POINTS + 1 and values[-1] - 0.5000001 < 0.5e-13
    # on ordinary axes the slack still absorbs rounding: 3 * 0.1 > 0.3
    assert list(sweep_values((0.0, 0.3, 0.1))) == [0.0, 0.1, 0.2, 0.30000000000000004]
    assert len(sweep_values(parse_sweep("0.01:pi/2:0.01"))) == 157


def random_sweep_spec(rng):
    """A checked start:stop:step spec of 1 to about 10**4 steps at a random scale; its
    stop lies on a step, a few floats off one, or between two."""
    step = float(10.0 ** rng.uniform(-300, 300))
    start = float(rng.choice([0.0, 1.0, -1.0]) * step * 10.0 ** rng.uniform(-3, 8))
    steps = int(10.0 ** rng.uniform(0, 4))
    stop = start + steps * step
    kind = rng.integers(4)
    if kind == 1:
        stop = start + (steps + float(rng.uniform(0, 1))) * step
    elif kind > 1:
        for _ in range(rng.integers(1, 4)):
            stop = math.nextafter(stop, math.inf if kind == 2 else -math.inf)
    return parse_sweep(f"{start!r}:{max(stop, start)!r}:{step!r}")


def test_sweep_values_are_the_takewhile_list():
    # the axis makes its values when read; they must be the list it once held
    rng = np.random.default_rng(20261019)
    specs = [random_sweep_spec(rng) for _ in range(3000)]
    specs += [parse_sweep(spec) for spec in (
        "0.01:pi/4:0.01", "0.01:pi/2:0.01", "0.0001:1.5:0.0001", "1e-300:1e-299:1e-300",
        "0.5:0.5000001:1e-13")]
    for spec in specs:
        values = sweep_values(spec)
        expected = bf_sweep_values(spec)
        assert len(values) == len(expected)
        assert list(values) == expected
        assert values[-1] == expected[-1] and values[len(values) // 2] == expected[len(values) // 2]
        assert values[1:4] == expected[1:4]


def test_sweep_axis_does_not_hold_its_values():
    import tracemalloc

    tracemalloc.start()
    try:
        values = sweep_values(parse_sweep("0.5:0.5000001:1e-13"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == SWEEP_MAX_POINTS + 1 and peak < 16 * 1024


def test_cli_runs_a_tiny_scale_alpha_axis(tmp_path):
    report = tmp_path / "tiny.json"
    assert main(["--sweep-alpha", "1e-300:1e-299:1e-300", "--out-json", str(report)]) == 0
    assert json.loads(report.read_text())["variants"]["printed"]["points"] == 10


def test_config_file_and_flag_precedence(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n": 1, "alpha": "pi/8", "certify": True,
                                       "epsilon": "2e-3"}))
    parser = build_parser()
    args = parser.parse_args(["--config", str(config_path), "--n", "2"])
    config = build_config(args)
    assert config.n == 2  # flag wins
    assert config.alpha == pytest.approx(math.pi / 8)  # file survives
    assert config.certify is True
    assert config.epsilon == 2e-3  # a numeric string is a number


HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize("entries, message", [
    ({"certify": "false"}, "certify must be true or false, got 'false'"),
    ({"certify": 0}, "certify must be true or false, got 0"),
    ({"auto_delta": "true"}, "auto_delta must be true or false, got 'true'"),
    ({"auto_delta": 1}, "auto_delta must be true or false, got 1"),
    ({"n": 2.9}, "n must be an integer, got 2.9"),
    ({"n": 2.0}, "n must be an integer, got 2.0"),
    ({"n": True}, "n must be an integer, got True"),
    ({"n": "2"}, "n must be an integer, got '2'"),
    ({"alpha": "0pi/0"}, "cannot parse angle '0pi/0'"),
    ({"epsilon": None}, "epsilon must be a finite number, got None"),
    ({"epsilon": [1]}, "epsilon must be a finite number, got [1]"),
    ({"epsilon": True}, "epsilon must be a finite number, got True"),
    ({"out_csv": 5}, "out_csv must be a nonempty path when given, got 5"),
    ({"out_json": 7}, "out_json must be a nonempty path when given, got 7"),
    ({"alpha": HUGE}, "alpha is too large for a float"),
    ({"theta": -HUGE}, "theta is too large for a float"),
    ({"delta": HUGE}, "delta is too large for a float"),
    ({"epsilon": HUGE}, "epsilon is too large for a float"),
    ({"sweep_delta": [0.1, HUGE, 0.1]}, "sweep_delta is too large for a float"),
    ({"sweep_theta": [0.1, 0.2, HUGE]}, "sweep_theta is too large for a float"),
    ({"sweep_alpha": [-HUGE, 0.2, 0.1]}, "sweep_alpha is too large for a float"),
], ids=["certify-string", "certify-int", "auto_delta-string", "auto_delta-int",
        "n-fraction", "n-float", "n-bool", "n-string", "alpha-zero-denominator",
        "epsilon-null", "epsilon-list", "epsilon-bool", "out_csv-int", "out_json-int",
        "alpha-huge", "theta-huge", "delta-huge", "epsilon-huge", "sweep_delta-huge",
        "sweep_theta-huge", "sweep_alpha-huge"])
def test_config_file_values_are_type_checked(tmp_path, capsys, monkeypatch, entries, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(entries))
    # refused before anything runs
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the run started"))
    assert main(["--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# any JSON value: scalars of every type, NaN and Infinity, integers beyond the
# float range, strings that parse as angles, sweeps or variants, and nestings
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
                | st.sampled_from([HUGE, -HUGE, "pi/4", "3pi/8", "pi/0", "1e999", "nan", "-inf",
                                   "0.1:1.2:0.1", "0:pi/2:0.5", "0.1:0.2", "both", "printed",
                                   "2e-3", " ", "out.csv"]))
json_values = st.recursive(json_scalars, lambda children: st.lists(children, max_size=4)
                           | st.dictionaries(st.text(max_size=4), children, max_size=3),
                           max_leaves=6)


# per key, values that pass, so that a drawn object often runs
valid_values = {
    "n": st.integers(1, 5), "epsilon": st.floats(1e-4, 0.1) | st.just("2e-3"),
    "auto_delta": st.booleans(), "certify": st.booleans(),
    "recursion": st.sampled_from(["printed", "normalized", "both"]),
    "out_csv": st.just("out.csv"), "out_json": st.just("out.json"),
    **{key: st.floats(0.01, 1.5) | st.just("pi/8") for key in ("alpha", "theta", "delta")},
    **{key: st.sampled_from(["0.1:0.5:0.1", [0.1, 0.5, 0.1]])
       for key in ("sweep_delta", "sweep_theta", "sweep_alpha")},
}
config_objects = st.fixed_dictionaries(
    {}, optional={key: valid_values[key] | json_values for key in cli._CONFIG_KEYS})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config_objects)
def test_any_flat_config_object_exits_cleanly(entries):
    # ends in exit 0, or in exit 1 with one error line; never raises
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        path = os.path.join(directory, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entries, handle)
        patch.setattr(cli, "run_experiment", lambda config: {"variants": {}})
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["--config", path])
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 1 and err.startswith("error: ") and err.endswith("\n")
        assert err.count("\n") == 1


# valid tables to mutate: local (uniform), nonlocal (GHZ, sharp Charlie), and
# the Svetlichny box just above the local weight
SV_WEIGHT, UNIFORM = 0.5 + 1e-6, np.full((2,) * 6, 0.125)
BASE_TABLES = (
    table_object(UNIFORM),
    table_object(behavior(build_gghz(math.pi / 4), math.pi / 4, 1.0).probs, round_index=2),
    table_object(SV_WEIGHT * svetlichny_probs() + (1 - SV_WEIGHT) * UNIFORM),
)
near_keys = st.sampled_from(["000;00", "000:000", "0000;000", "000;0001", " 000;000", "222;000",
                             "000;000 ", "round", ""]) | st.text(max_size=8)
near_values = st.sampled_from([HUGE, -HUGE, 10**20, 2**63, 1e308, -1e-9, 1e-300, 0, 1, True,
                               "0.125", "nan", None, [], {}, [0.125], {"p": 0.125}])
bad_rounds = st.sampled_from([0, -1, 1.5, 2.0, True, False, "1", HUGE, -HUGE, None, [1]])


non_objects = json_values.filter(lambda value: not isinstance(value, dict))


@st.composite
def table_objects(draw):
    """A valid table after one to three mutations: dropped, renamed or unknown keys,
    values of every JSON type, nudged entries, a bad round, or a non-object."""
    table = json.loads(json.dumps(draw(st.sampled_from(BASE_TABLES))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop-entry", "rename-entry", "unknown-entry", "bad-value",
                                     "nudge", "drop-top", "unknown-top", "bad-round",
                                     "probs-not-object", "not-an-object"]))
        probs = table.get("probs")
        if kind == "not-an-object":
            return draw(non_objects)
        if kind == "drop-top":
            table.pop(draw(st.sampled_from(["round", "probs"])), None)
        elif kind == "unknown-top":
            table[draw(near_keys)] = draw(json_values)
        elif kind == "bad-round":
            table["round"] = draw(bad_rounds | json_values)
        elif kind == "probs-not-object":
            table["probs"] = draw(non_objects)
        elif isinstance(probs, dict) and probs:  # the entry mutations
            key = draw(st.sampled_from(sorted(probs)))
            if kind == "drop-entry":
                del probs[key]
            elif kind == "rename-entry":
                probs[draw(near_keys)] = probs.pop(key)
            elif kind == "unknown-entry":
                probs[draw(near_keys)] = draw(near_values | json_values)
            elif kind == "bad-value":
                probs[key] = draw(near_values | json_values)
            elif isinstance(probs[key], float):  # nudge, inside and outside the tolerances
                probs[key] += draw(st.sampled_from([1e-13, -1e-13, 1e-11, -1e-11, 1e-6]))
    return table


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table_objects())
def test_any_mutated_table_file_exits_cleanly(table):
    # ends in exit 0 with a report, or in exit 1 with one error line and no
    # report; never raises
    with tempfile.TemporaryDirectory() as directory:
        path, report = os.path.join(directory, "t.json"), os.path.join(directory, "v.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(table, handle)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--certify-table", path, "--out-json", report])
        err = stderr.getvalue()
        if code == 0:
            assert err == "" and "verdict: " in stdout.getvalue()
            with open(report, encoding="utf-8") as handle:
                assert json.load(handle)["table"] == path
        else:
            assert code == 1 and stdout.getvalue() == "" and not os.path.exists(report)
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
            assert err.endswith("\n")


# each of these used to exit 1 without naming the file
BAD_JSON = {
    "malformed": b'{"round": 1, "probs": {',
    "long-integer": b'{"round": ' + b"1" * 5001 + b"}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": b'{"round": 1, "probs": "\xff\xfe"}',
}


@pytest.mark.parametrize("content", BAD_JSON.values(), ids=BAD_JSON.keys())
@pytest.mark.parametrize("flag", ["--certify-table", "--config"])
def test_unreadable_json_file_is_named(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main([flag, str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_table_file_with_a_repeated_key_is_refused(tmp_path, capsys):
    # the repeated entry used to be certified with its last value
    path, out = tmp_path / "t.json", tmp_path / "out.json"
    write_table(str(path), np.full((2,) * 6, 0.125))
    path.write_text(path.read_text().replace('"probs": {', '"probs": {"000;000": 0.9, ', 1))
    assert main(["--certify-table", str(path), "--out-json", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: duplicate key '000;000'\n")
    assert not out.exists()


def test_config_file_with_a_repeated_key_is_refused(tmp_path, capsys, monkeypatch):
    # {"n": 3, "n": 1} used to run with n = 1
    path = tmp_path / "c.json"
    path.write_text('{"n": 3, "n": 1}')
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the run started"))
    assert main(["--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: duplicate key 'n'\n")


@pytest.mark.parametrize("flag, target, reason", [
    ("--out-csv", "reports", "[Errno 21] Is a directory"),
    ("--out-csv", "reports/", "[Errno 21] Is a directory"),
    ("--out-json", "reports/", "[Errno 21] Is a directory"),
    ("--out-json", "missing/x.json", "[Errno 2] No such file or directory"),
], ids=["csv-to-a-directory", "csv-to-a-directory-with-slash", "json-to-a-directory-with-slash",
        "json-into-a-missing-directory"])
def test_report_write_failure_names_the_requested_path(tmp_path, capsys, flag, target, reason):
    # the message used to name the temporary file the report is first written to,
    # and a directory given as "reports/" used to be called "Not a directory"
    (tmp_path / "reports").mkdir()
    path = os.path.join(str(tmp_path), target)
    assert main(["--n", "1", flag, path]) == 1
    assert capsys.readouterr() == ("", f"error: {reason}: {path!r}\n")
    # and no temporary file is left behind
    assert [p.name for p in tmp_path.rglob("*")] == ["reports"]


def test_config_integer_beyond_float_range_is_refused_when_built_in_code():
    for name in ("alpha", "epsilon"):
        with pytest.raises(ConfigError, match=f"^{name} is too large for a float$"):
            ExperimentConfig(**{name: HUGE})
    with pytest.raises(ConfigError, match="^sweep_theta is too large for a float$"):
        ExperimentConfig(sweep_theta=(0.1, HUGE, 0.1))


def test_config_rejects_unknown_key(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"rounds": 3}))
    parser = build_parser()
    args = parser.parse_args(["--config", str(config_path)])
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(args)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(recursion="other")
    with pytest.raises(ConfigError):
        ExperimentConfig(auto_delta=True, sweep_delta=(0.1, 0.2, 0.1))
    with pytest.raises(ConfigError):
        ExperimentConfig(out_csv="  ")
    # sweeps given in code get the checks of parse_sweep, grid bound included
    for spec in ((0.1, 0.3, 0.0), (0.3, 0.1, 0.1), (0.1, float("nan"), 0.1), (0.1, 0.3, 1e-12)):
        with pytest.raises(ConfigError, match="^sweep "):
            ExperimentConfig(sweep_theta=spec)
    # and must be a tuple of three numbers: a string is no number, so none reaches the run
    for spec in ("0.1:0.5:0.1", ("0.1", "0.5", "0.1"), (0.1, 0.5), [0.1, 0.5, 0.1],
                 (0.1, True, 0.1)):
        message = f"sweep_theta must be three numbers (start, stop, step), got {spec!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(sweep_theta=spec)
    # so do the angles and epsilon: a bool or a string is no number, and no TypeError escapes
    for name, value in (("epsilon", True), ("alpha", False), ("theta", "0.7"), ("delta", None),
                        ("epsilon", [1e-3]), ("alpha", np.bool_(True))):
        message = f"^{name} must be a finite number, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**{name: value})
    for name, value in (("theta", np.float64(0.7)), ("delta", np.int64(1)), ("epsilon", 1)):
        ExperimentConfig(**{name: value})
    # a numpy integer n is the built-in int of its value; a numpy float or bool is no integer
    config = ExperimentConfig(n=np.int64(2))
    assert type(config.n) is int
    assert run_experiment(config) == run_experiment(ExperimentConfig(n=2))
    for value, shown in ((np.float64(2.0), 2.0), (np.bool_(True), np.bool_(True))):
        message = f"^n must be an integer, got {re.escape(repr(shown))}$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(n=value)


@pytest.mark.parametrize("given, built_in", [
    ({"n": 2, "theta": np.float32(0.7)}, {"n": 2, "theta": float(np.float32(0.7))}),
    ({"epsilon": np.int64(1)}, {"epsilon": 1}),
    ({"sweep_alpha": (np.int64(0), np.float32(0.5), np.float64(0.25))},
     {"sweep_alpha": (0, float(np.float32(0.5)), 0.25)}),
], ids=["float32-theta", "int64-epsilon", "numpy-sweep"])
def test_numpy_numbers_run_as_built_in_numbers(tmp_path, given, built_in):
    # a float32 angle once ran in float32, and no numpy number could be written to the JSON
    reports = []
    for tag, entries in (("given", given), ("built_in", built_in)):
        paths = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        run_experiment(ExperimentConfig(out_csv=str(paths[0]), out_json=str(paths[1]), **entries))
        reports.append([path.read_bytes() for path in paths])
    assert reports[0] == reports[1]


def test_point_run_two_rounds(tmp_path):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    config = ExperimentConfig(n=2, certify=True, out_csv=str(csv_path),
                              out_json=str(json_path))
    summary = run_experiment(config)

    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    row1 = lines[1].split(",")
    row2 = lines[2].split(",")
    assert row1[0] == "1" and row2[0] == "2"
    assert float(row1[1]) == pytest.approx(0.41462777593546814, abs=1e-8)
    assert float(row2[1]) == pytest.approx(0.91935445783192908, abs=1e-8)
    assert float(row1[2]) == pytest.approx(3.00058578643762690, abs=1e-8)
    assert float(row2[2]) == pytest.approx(3.00064943233910793, abs=1e-8)
    assert row1[5] == "true" and row2[5] == "true"
    assert row1[6] == "false" and row2[6] == "false"  # LP-infeasible: genuinely nonlocal

    data = json.loads(json_path.read_text())
    printed = data["variants"]["printed"]
    assert printed["valid_upto"] == 2
    assert printed["max_violating_k"] == 2
    assert printed["certifier_verdicts"] == {"1": False, "2": False}


def test_point_run_product_state(tmp_path):
    # alpha = 0: value 1 + (1 + gamma_1) cos(theta) <= 3, local, certifiable
    json_path = tmp_path / "out.json"
    config = ExperimentConfig(n=1, alpha=0.0, certify=True, out_json=str(json_path))
    summary = run_experiment(config)
    rounds = summary["variants"]["printed"]["rounds"]
    gamma_1 = summary["variants"]["printed"]["gammas"][0]
    expected = 1 + (1 + gamma_1) * math.cos(config.theta)
    assert rounds[0]["ns2_oracle"] == pytest.approx(expected, abs=1e-10)
    assert rounds[0]["ns2_oracle"] == pytest.approx(
        bf_closed_form(1, 0.0, config.theta, [gamma_1]), abs=1e-10)
    assert rounds[0]["violated"] is False
    assert rounds[0]["lp_feasible"] is True


def test_point_run_is_the_one_point_grid(tmp_path):
    outputs = []
    for tag, grid in (("point", {}), ("grid", {"sweep_theta": (0.7, 0.7, 1.0)})):
        csv_path = tmp_path / f"{tag}.csv"
        summary = run_experiment(ExperimentConfig(n=2, theta=0.7, recursion="both",
                                                  out_csv=str(csv_path), **grid))
        outputs.append((csv_path.read_bytes(), summary))
    (point_csv, point), (grid_csv, grid) = outputs
    assert point_csv == grid_csv
    assert point["mode"] == "point" and grid["mode"] == "sweep"
    for variant, data in grid["variants"].items():
        assert data["points"] == 1
        assert data["rows"] == len(point["variants"][variant]["rounds"]) == 2
        assert data["max_violating_k"] == point["variants"][variant]["max_violating_k"]


def test_truncation_error_without_auto_delta(capsys):
    code = main(["--n", "3", "--delta", "pi/4"])
    assert code == 1
    err = capsys.readouterr().err
    assert "schedule truncated" in err
    assert "auto-delta" in err or "auto_delta" in err


def test_sweep_row_without_valid_round_reports_truncation(capsys):
    # epsilon = 5 puts gamma_1 = 6 tan(pi/8) outside [0, 1] at delta = pi/4
    assert main(["--epsilon", "5", "--sweep-theta", "0.1:0.3:0.1"]) == 1
    sweep_err = capsys.readouterr().err
    assert main(["--epsilon", "5"]) == 1
    assert sweep_err == capsys.readouterr().err == (
        "error: schedule truncated: gamma_1 = 2.4852813742385704 leaves [0, 1] at "
        "delta=0.7853981633974483 (printed); valid_upto=0. Reduce --n or pass --auto-delta.\n"
    )


def test_truncation_message_prints_the_values_it_tested(capsys):
    # one float past the boundary gamma_3 exceeds 1 by one float, which six
    # decimals would print as 1.000000
    delta = math.nextafter(validity_region(3, 1e-3, resolution=0.0), math.inf)
    assert main(["--n", "3", "--delta", repr(delta)]) == 1
    assert capsys.readouterr().err == (
        "error: schedule truncated: gamma_3 = 1.0000000000000002 leaves [0, 1] at "
        f"delta={delta!r} (printed); valid_upto=2. Reduce --n or pass --auto-delta.\n"
    )


def test_auto_delta_keeps_schedule_valid(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    config = ExperimentConfig(n=3, auto_delta=True, out_json=str(json_path))
    summary = run_experiment(config)
    printed = summary["variants"]["printed"]
    assert printed["valid_upto"] >= 3
    assert all(0.0 <= g <= 1.0 for g in printed["gammas"][:3])
    assert printed["delta"] == pytest.approx(validity_region(3, 1e-3), abs=0)
    # a sweep row takes the search result too, per variant
    summary = run_experiment(ExperimentConfig(n=3, auto_delta=True, recursion="both",
                                              sweep_theta=(0.1, 0.3, 0.1)))
    for variant, delta in (("printed", 0.282520237496187), ("normalized", math.pi / 4)):
        sweep = summary["variants"][variant]
        assert sweep["max_ns2"]["delta"] == validity_region(3, 1e-3, variant) == delta
        assert (sweep["points"], sweep["rows"]) == (3, 9)
    # and a search that finds no delta is refused
    assert main(["--n", "11", "--auto-delta"]) == 1
    assert capsys.readouterr().err == "error: auto_delta: no valid delta exists for n=11 (printed)\n"


def test_sweep_summary_and_determinism(tmp_path):
    kwargs = dict(
        n=2,
        recursion="both",
        sweep_delta=(0.74, math.pi / 4, 0.02),
        sweep_theta=(0.30, 0.40, 0.02),
    )
    outputs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        config = ExperimentConfig(out_csv=str(csv_path), out_json=str(json_path), **kwargs)
        run_experiment(config)
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert outputs[0] == outputs[1]

    data = json.loads(outputs[0][1].decode())
    printed = data["variants"]["printed"]
    normalized = data["variants"]["normalized"]
    assert printed["points"] == 18 and normalized["points"] == 18
    # second-round violations live off theta = pi/4 through the cross terms
    assert printed["max_violating_k"] == 2
    assert printed["violations"] == 12
    assert printed["max_ns2"]["ns2"] == pytest.approx(3.0392985, abs=1e-5)
    assert printed["max_ns2"]["k"] == 2
    assert normalized["max_violating_k"] is None
    assert normalized["violations"] == 0


def test_chunked_theta_axis_writes_the_same_reports(tmp_path, monkeypatch):
    # a theta axis runs through the engine in chunks; chunks of 3 angles give
    # the bytes of one stack, certified verdicts included
    outputs = []
    for tag, chunk in (("whole", cli.THETA_CHUNK), ("chunked", 3)):
        monkeypatch.setattr(cli, "THETA_CHUNK", chunk)
        csv_path, json_path = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        run_experiment(ExperimentConfig(
            n=2, certify=True, recursion="both", sweep_delta=(0.74, math.pi / 4, 0.04),
            sweep_theta=(0.01, math.pi / 2, 0.07), out_csv=str(csv_path),
            out_json=str(json_path)))
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") == 1 + 2 * 2 * 2 * 23  # variants x deltas x thetas x k


# sha256 of the CSV and JSON reports of conftest.THETA_ALPHA_GRID, taken when every
# alpha of a row ran as its own engine stack over the theta axis
THETA_ALPHA_DIGESTS = ("d3d2b3c542e351db23a35411bfb99199e799dd0004c97b0c899e2eca59f3e28d",
                       "af70e67c44ab2dffd36c6d6443808b4abda538e3f6e64d094522370ccf8334e8")


def test_chunked_theta_alpha_grid_writes_the_same_reports(tmp_path, monkeypatch):
    # a row's (theta, alpha) pairs run through the engine in report order, in
    # chunks; chunks of 7 pairs (straddling thetas), of 1 and of the default
    # size certify the same tables in the same order and write the pinned bytes
    orders = []
    for chunk in (cli.THETA_CHUNK, 7, 1):
        monkeypatch.setattr(cli, "THETA_CHUNK", chunk)
        verdicts, _ = record_verdicts(monkeypatch)
        csv_path, json_path = tmp_path / f"{chunk}.csv", tmp_path / f"{chunk}.json"
        run_experiment(ExperimentConfig(out_csv=str(csv_path), out_json=str(json_path),
                                        **THETA_ALPHA_GRID))
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (csv_path, json_path))
        assert digests == THETA_ALPHA_DIGESTS
        orders.append(np.array([table.probs for table, _ in verdicts]))
    assert len(orders[0]) == 2 * 6 * 5 * 2  # variants x thetas x alphas x rounds
    assert all(np.array_equal(order.view(np.int64), orders[0].view(np.int64))
               for order in orders)


def test_sweep_summary_keeps_the_first_of_tied_rows(monkeypatch):
    # the claim-audit grid has no exact ties, so its pinned reports cannot
    # show which of two equal rows the summary keeps
    def grid(config, variant, certify):
        for delta in (0.1, 0.2):
            rows = ((1, 0.5, 3.5, 3.0, 0.5, True, None), (2, 0.9, 3.25, 3.0, 0.25, True, None),
                    (3, 1.0, 2.0, 3.0, 1.0, False, None))
            yield delta, None, 0.3, 0.4, rows

    monkeypatch.setattr(cli, "_grid", grid)
    summary = run_experiment(ExperimentConfig(n=3, sweep_delta=(0.1, 0.2, 0.1)))
    sweep = summary["variants"]["printed"]
    first = {"delta": 0.1, "theta": 0.3, "alpha": 0.4}
    assert sweep["max_ns2"] == {**first, "k": 1, "ns2": 3.5}
    assert sweep["max_violating"] == {**first, "k": 2, "ns2": 3.25}
    assert (sweep["points"], sweep["rows"], sweep["violations"], sweep["max_violating_k"]) == (
        2, 6, 4, 2)


def test_alpha_axis_memory_does_not_grow(monkeypatch):
    # every alpha once kept its own engine stack alive, about 3.4 kB each
    import tracemalloc

    monkeypatch.setattr(cli, "THETA_CHUNK", 16)

    def peak(alphas):
        tracemalloc.start()
        try:
            run_experiment(ExperimentConfig(n=2, sweep_alpha=(1e-3, alphas * 1e-3, 1e-3)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # the first run builds the lazy caches
    assert peak(400) - peak(16) < 100 * 1024


def record_verdicts(monkeypatch) -> tuple[list, list]:
    """Records (table, result) for every run verdict and counts simplex.solve calls."""
    from nsshare import cli, simplex

    verdicts, solves = [], []
    certify, solve = cli.lp_feasible, simplex.solve

    def recording(table, *args, **kwargs):
        result = certify(table, *args, **kwargs)
        verdicts.append((table, result))
        return result

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "lp_feasible", recording)
    monkeypatch.setattr(simplex, "solve", counting)
    return verdicts, solves


@pytest.mark.parametrize("config", [
    ExperimentConfig(n=6, auto_delta=True, certify=True, recursion="both"),
    ExperimentConfig(n=2, certify=True, recursion="both",
                     sweep_theta=(0.01, math.pi / 2, 0.02)),
    ExperimentConfig(n=3, certify=True, recursion="both",
                     sweep_theta=(0.01, math.pi / 2, 0.02)),
], ids=["point", "theta-sweep", "theta-sweep-n3"])
def test_warm_started_run_gives_the_cold_verdicts_with_fewer_lps(monkeypatch, config):
    from nsshare.certifier import lp_feasible, seed_lp

    seed_lp()
    verdicts, solves = record_verdicts(monkeypatch)
    summary = run_experiment(config)
    # each LP continues from the run's latest local one, the first from the seed LP:
    # none is cold
    warm_solves = len(solves)
    assert warm_solves == 0
    cold = [lp_feasible(table).feasible for table, _ in verdicts]
    assert [result.feasible for _, result in verdicts] == cold
    assert warm_solves < len(solves) - warm_solves
    assert True in cold and False in cold
    if not config.is_sweep:
        reported = [v for data in summary["variants"].values()
                    for v in data["certifier_verdicts"].values()]
        assert reported == cold


def test_certified_alpha_sweep_checks_each_stack_once(monkeypatch):
    # a chunk's initial states are checked once, on entry to run_stack, and
    # each Lüders round's stack once more; nothing else checks a state
    from nsshare import engine, states

    calls, check = [], states.check_densities

    def counting(rhos):
        calls.append(len(rhos))
        return check(rhos)

    for module in (states, engine):
        monkeypatch.setattr(module, "check_densities", counting)
    summary = run_experiment(ExperimentConfig(n=2, certify=True, recursion="both",
                                              sweep_alpha=(0.1, 1.5, 0.2)))
    assert [data["rows"] for data in summary["variants"].values()] == [16, 16]
    # per variant: one chunk of 8 alphas, its entry check and one Lüders round's
    assert calls == [8, 8] * 2


def test_certified_point_runs_need_no_cold_lp_once_the_seed_exists(monkeypatch, rng):
    from nsshare.certifier import lp_feasible, seed_lp

    seed_lp()
    verdicts, solves = record_verdicts(monkeypatch)
    for n in range(1, 9):
        for theta, alpha in rng.uniform((0.1, 0.1), (1.5, 1.45), size=(2, 2)):
            run_experiment(ExperimentConfig(n=n, theta=theta, alpha=alpha, auto_delta=True,
                                            certify=True, recursion="both"))
    assert not solves
    cold = [lp_feasible(table).feasible for table, _ in verdicts]
    assert [result.feasible for _, result in verdicts] == cold
    assert len(cold) == 2 * 2 * sum(range(1, 9))


def test_certified_run_at_a_cap_of_zero_dual_pivots_takes_one_cold_lp(monkeypatch):
    # the run's one table is local, obeys every image of the inequality and is
    # a dual pivot away from the seed LP, so at a cap of 0 one cold LP decides it
    from nsshare import simplex
    from nsshare.certifier import lp_feasible, seed_lp

    seed_lp()
    monkeypatch.setattr(simplex, "DUAL_PIVOT_LIMIT", 0)
    verdicts, solves = record_verdicts(monkeypatch)
    run_experiment(ExperimentConfig(n=1, certify=True, theta=0.7, alpha=0.6))
    [(table, result)] = verdicts
    assert len(solves) == 1
    assert result.feasible
    assert result.certificate == lp_feasible(table).certificate


def test_warm_start_does_not_outlive_a_run(monkeypatch):
    # identical runs make identical LP calls: a run's LPs depend only on its own
    # tables and the fixed seed LP, which exists before either run
    from nsshare.certifier import seed_lp

    seed_lp()
    calls = record_lp_calls(monkeypatch)
    config = ExperimentConfig(n=4, auto_delta=True, certify=True, theta=0.7, alpha=0.6)
    sequences = []
    for _ in range(2):
        del calls[:]
        run_experiment(config)
        sequences.append(list(calls))
    assert sequences[0] == sequences[1]
    assert [name for name, _, _ in sequences[0]] == ["resolve"] * 4


def test_cli_main_end_to_end(tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    code = main([
        "--n", "2", "--alpha", "pi/4", "--theta", "pi/4", "--delta", "pi/4",
        "--epsilon", "0.001", "--out-csv", str(csv_path), "--out-json", str(json_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "max violating k = 2" in out
    assert csv_path.exists() and json_path.exists()


def test_cli_certify_table_nonlocal(tmp_path, capsys):
    path, report = tmp_path / "table.json", tmp_path / "verdict.json"
    write_table(str(path), behavior(build_gghz(math.pi / 4), math.pi / 4, 1.0).probs)
    code = main(["--certify-table", str(path), "--out-json", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "genuinely nonsignal nonlocal" in out
    assert "margin 8.284271e-01" in out
    data = json.loads(report.read_text())
    assert set(data) == {"table", "ns2", "feasible", "certificate", "functional", "bound", "margin"}
    assert data["feasible"] is False and data["bound"] == 3.0 and len(data["functional"]) == 64


def test_cli_certify_table_refuses_run_flags(tmp_path, capsys):
    path, config_path = tmp_path / "table.json", tmp_path / "config.json"
    write_table(str(path), np.full((2,) * 6, 0.125))
    config_path.write_text("{}")
    csv_path, report = tmp_path / "x.csv", tmp_path / "verdict.json"
    code = main(["--certify-table", str(path), "--out-csv", str(csv_path), "--n", "3",
                 "--sweep-theta", "0.1:0.2:0.1", "--out-json", str(report)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --certify-table takes only --out-json, "
                            "got --n, --sweep-theta, --out-csv\n")
    assert main(["--certify-table", str(path), "--config", str(config_path), "--certify"]) == 1
    assert capsys.readouterr().err == ("error: --certify-table takes only --out-json, "
                                       "got --config, --certify\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "table.json"]


@pytest.mark.parametrize("path", ["", "  "])
def test_cli_certify_table_refuses_a_blank_path(tmp_path, capsys, monkeypatch, path):
    # a blank path given to any path flag is refused before anything is read,
    # run or written
    monkeypatch.chdir(tmp_path)
    write_table("table.json", np.full((2,) * 6, 0.125))
    report = f"out_json must be a nonempty path when given, got {path!r}"
    for argv, error in (
            (["--certify-table", path, "--out-json", "verdict.json"],
             f"--certify-table needs a file path, got {path!r}"),
            (["--config", path, "--out-json", "run.json"], f"--config needs a file path, got {path!r}"),
            (["--certify-table", "table.json", "--out-json", path], report),
            (["--n", "2", "--out-json", path], report),
            (["--n", "2", "--out-csv", path],
             f"out_csv must be a nonempty path when given, got {path!r}")):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"
        assert os.listdir() == ["table.json"]


def test_cli_refuses_one_file_for_both_reports(tmp_path, capsys, monkeypatch):
    # the JSON report would replace the CSV; nothing is run or written
    monkeypatch.chdir(tmp_path)
    for csv, report in (("x", "x"), ("x", "./x"), ("x", str(tmp_path / "x"))):
        assert main(["--n", "2", "--out-csv", csv, "--out-json", report]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: out_csv and out_json must be two files, "
                                f"got {csv!r} and {report!r}\n")
        assert os.listdir() == []
    # a config built in code follows the same rule
    with pytest.raises(ConfigError, match="^out_csv and out_json must be two files, "):
        ExperimentConfig(out_csv="sub/../run", out_json="run")
    ExperimentConfig(out_csv="run.csv", out_json="run.json")
    ExperimentConfig(out_json="run")


def test_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    # main builds its parser once per process; each call starts from its defaults
    assert build_parser() is build_parser()
    table, report = tmp_path / "t.json", tmp_path / "v.json"
    write_table(str(table), np.full((2,) * 6, 0.125))
    assert main(["--n", "2", "--certify", "--out-json", str(tmp_path / "run.json")]) == 0
    capsys.readouterr()
    assert main(["--certify-table", str(table), "--out-json", str(report)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "verdict: nonsignal-local" in captured.out
    assert json.loads(report.read_text())["feasible"] is True
    # a refusal lists the flags of its own call only
    assert main(["--certify-table", str(table), "--epsilon", "0.01"]) == 1
    assert capsys.readouterr().err == "error: --certify-table takes only --out-json, got --epsilon\n"
    for argv in (["--n", "two"], ["--no-such-flag"], ["--n", "two"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    assert main(["--certify-table", str(table)]) == 0


def test_cli_certify_table_local(tmp_path, capsys):
    path, report = tmp_path / "table.json", tmp_path / "verdict.json"
    write_table(str(path), np.full((2,) * 6, 0.125))
    assert main(["--certify-table", str(path), "--out-json", str(report)]) == 0
    assert "verdict: nonsignal-local" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert set(data) == {"table", "ns2", "feasible", "certificate", "residual", "group_weights"}
    assert data["feasible"] is True and data["residual"] < 1e-9


def test_cli_certify_table_refuses_signaling(tmp_path, capsys):
    path, report = tmp_path / "signaling.json", tmp_path / "verdict.json"
    write_table(str(path), signaling_probs())
    code = main(["--certify-table", str(path), "--out-json", str(report)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: table is signaling: P(ac|xz) vs y varies by "
                            f"1.000e+00 (tolerance 1e-10)\n")
    assert captured.out == "" and not report.exists()


def test_cli_certify_table_checks_no_signaling_once(tmp_path, capsys, monkeypatch):
    # the table is checked once, when it is imported; nothing downstream re-checks it
    calls = []
    original = engine.no_signaling_residuals

    def counting(probs):
        calls.append(len(probs))
        return original(probs)

    monkeypatch.setattr(engine, "no_signaling_residuals", counting)
    for probs in (np.full((2,) * 6, 0.125),
                  behavior(build_gghz(math.pi / 4), math.pi / 4, 1.0).probs):
        path, report = tmp_path / "table.json", tmp_path / "verdict.json"
        write_table(str(path), probs)
        calls.clear()
        assert main(["--certify-table", str(path), "--out-json", str(report)]) == 0
        assert calls == [1]
    calls.clear()
    write_table(str(path), signaling_probs())
    report.unlink()
    assert main(["--certify-table", str(path), "--out-json", str(report)]) == 1
    assert calls == [1] and not report.exists()
    err = capsys.readouterr().err.splitlines()[-1]
    assert str(path) in err and "signaling" in err and "varies by" in err


@pytest.mark.parametrize("argv, stacks", [
    ([], [1] * 4),                                   # 2 variants x 2 rounds, one theta
    (["--sweep-theta", "0.5:0.7:0.1"], [3] * 4),     # the same, three thetas per stack
])
def test_certified_run_checks_each_round_stack_once(tmp_path, monkeypatch, argv, stacks):
    # run_stack checks every round's stack once; the certifier takes its tables
    # without checking them again
    calls = []
    original = engine.no_signaling_residuals

    def counting(probs):
        calls.append(len(probs))
        return original(probs)

    monkeypatch.setattr(engine, "no_signaling_residuals", counting)
    assert main(["--n", "2", "--certify", "--recursion", "both",
                 "--out-json", str(tmp_path / "run.json"), *argv]) == 0
    assert calls == stacks


# sha256 of --certify-table's stdout and --out-json report, each table decided
# by the feasibility LP: the uniform table by its weights (local), the
# Svetlichny box at weight 0.5 + 1e-6 by its Farkas dual.  Any change to the
# LP's digits (residual, group masses, functional, bound, margin) moves them.
CERTIFY_TABLE_DIGESTS = {
    "uniform": ("4fbce17c02a1dcbd48714a589a4eb0670734e0b69c56383c8e100e7cdc7c33b1",
                "a9ccf7bfbd8ae083ab3a4553149b0e2e8e11afb98c038c05a2841e7b0484c41e"),
    "svnoise": ("ddfa226d61d0c0fb00b4bbd240d8488af5ba24e2f6693f3c7dda335f89fb0345",
                "ca6e6b64f49d106d7c576865b5a5228ad3273a6b86207a129e06bbcc8e0ae10e"),
}


@pytest.mark.parametrize("name", sorted(CERTIFY_TABLE_DIGESTS))
def test_certify_table_reports_are_pinned(tmp_path, capsys, monkeypatch, name):
    weight, uniform = 0.5 + 1e-6, np.full((2,) * 6, 0.125)
    probs = {"uniform": uniform,
             "svnoise": weight * svetlichny_probs() + (1 - weight) * uniform}[name]
    monkeypatch.chdir(tmp_path)  # the report names the table by the path given
    write_table(f"{name}.json", probs)
    assert main(["--certify-table", f"{name}.json", "--out-json", f"v_{name}.json"]) == 0
    stdout = capsys.readouterr().out.encode()
    report = (tmp_path / f"v_{name}.json").read_bytes()
    assert (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(report).hexdigest()) \
        == CERTIFY_TABLE_DIGESTS[name]


def test_cli_certify_table_refuses_nan(tmp_path, capsys):
    path = tmp_path / "nan.json"
    write_table(str(path), behavior(build_gghz(math.pi / 4), math.pi / 4, 0.5).probs)
    data = json.loads(path.read_text())
    data["probs"]["101;011"] = float("nan")
    path.write_text(json.dumps(data))
    code = main(["--certify-table", str(path), "--out-json", str(tmp_path / "verdict.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "(101;011)" in err
    assert not (tmp_path / "verdict.json").exists()


def test_cli_exits_cleanly_on_lp_failure(tmp_path, capsys, monkeypatch):
    from nsshare import simplex
    from nsshare.certifier import seed_lp

    def failing(*args, **kwargs):
        raise RuntimeError("simplex did not terminate within 0 iterations")

    monkeypatch.setattr(simplex, "solve", failing)
    # the point run's table needs a cold LP only when no seed LP exists yet
    seed_lp.cache_clear()
    # both inputs obey the inequality, so only the LP can decide them
    path = tmp_path / "table.json"
    write_table(str(path), np.full((2,) * 6, 0.125))
    assert main(["--certify-table", str(path)]) == 1
    assert main(["--n", "1", "--certify", "--alpha", "0.05"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: simplex did not terminate") == 2


def test_cli_exits_cleanly_when_the_seed_lp_fails(tmp_path, capsys, monkeypatch):
    # the seed LP is built when a table first reaches the LP: a run whose tables
    # all violate the inequality needs none, and the next run's table does
    from nsshare import simplex
    from nsshare.certifier import seed_lp

    def failing(*args, **kwargs):
        raise RuntimeError("simplex phase 1 found no pivot row")

    seed_lp.cache_clear()
    monkeypatch.setattr(simplex, "solve", failing)
    assert main(["--n", "2", "--certify"]) == 0
    capsys.readouterr()
    report = tmp_path / "run.json"
    assert main(["--n", "1", "--certify", "--alpha", "0.05", "--out-json", str(report)]) == 1
    assert capsys.readouterr().err == "error: simplex phase 1 found no pivot row\n"
    assert not report.exists()
    monkeypatch.undo()
    assert seed_lp().feasible  # the failed build was not kept


def test_certify_table_takes_one_cold_lp_also_after_the_seed_exists(tmp_path, monkeypatch):
    # CERTIFY_TABLE_DIGESTS pin the digits of the cold LP's certificate
    from nsshare.certifier import seed_lp

    seed_lp()
    calls = record_lp_calls(monkeypatch)
    path = tmp_path / "table.json"
    write_table(str(path), np.full((2,) * 6, 0.125))
    assert main(["--certify-table", str(path)]) == 0
    assert [name for name, _, _ in calls] == ["solve"]


def test_cli_refuses_delta_below_the_normal_float_range(capsys):
    # every gamma used to read 0 here, until 2.0 ** (k - 1) overflowed at k = 1025
    code = main(["--n", "2000", "--recursion", "printed", "--delta", "1e-300"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: delta must be at least ") and "got 1e-300" in err
    assert err.count("\n") == 1


def test_cli_refuses_theta_axis_touching_zero(capsys):
    code = main(["--n", "2", "--sweep-theta", "0:pi/2:0.5"])
    assert code == 1
    assert capsys.readouterr().err == "error: theta must lie in (0, pi/2), got 0.0\n"


@pytest.mark.parametrize("argv, message", [
    (["--sweep-alpha", "0.0001:1.58:0.0001"], "alpha must lie in [0, pi/2], got 1.58"),
    (["--sweep-theta", "0.01:1.6:0.001"], "theta must lie in (0, pi/2), got 1.6"),
    (["--sweep-delta", "0.01:0.8:0.01"], "delta must lie in (0, pi/4], got 0.8"),
    # gamma_1 = 3 tan(delta/2) first leaves [0, 1] at the 65th of 78 delta rows
    (["--epsilon", "2", "--sweep-delta", "0.01:0.78:0.01", "--sweep-theta", "0.001:1.5:0.001"],
     "schedule truncated: gamma_1 = 1.2331647454566406 leaves [0, 1] at delta=0.78 (printed); "
     "valid_upto=0. Reduce --n or pass --auto-delta."),
], ids=["alpha", "theta", "delta", "delta-truncation"])
def test_cli_refuses_an_axis_leaving_its_range_before_any_stack(tmp_path, capsys, monkeypatch,
                                                                argv, message):
    # each axis rises, so the refusal names its last value
    monkeypatch.setattr(cli, "run_stack", lambda *args: pytest.fail("a stack ran"))
    reports = [tmp_path / "out.csv", tmp_path / "out.json"]
    assert main(argv + ["--n", "2", "--out-csv", str(reports[0]), "--out-json", str(reports[1])]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(path.exists() for path in reports)


def test_cli_reports_config_errors(capsys):
    for argv, angle in ((["--delta", "nonsense"], "nonsense"), (["--theta", "pi/0"], "pi/0"),
                        (["--sweep-theta", "0.1:pi/0:0.1"], "pi/0")):
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot parse angle {angle!r}\n"


def test_closed_form_column_matches_audit(tmp_path):
    # the CSV's closed-form column reproduces the reference formula
    csv_path = tmp_path / "out.csv"
    config = ExperimentConfig(n=2, theta=0.9, out_csv=str(csv_path))
    run_experiment(config)
    schedule = gamma_sequence(math.pi / 4, 1e-3, 2)
    for line in csv_path.read_text().splitlines()[1:]:
        fields = line.split(",")
        k = int(fields[0])
        expected = bf_closed_form(k, math.pi / 4, 0.9, list(schedule.gammas))
        assert float(fields[3]) == pytest.approx(expected, abs=1e-8)


report_floats = st.floats(allow_nan=False, allow_infinity=False)
verdicts = st.sampled_from([None, True, False, np.bool_(True), np.bool_(False)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 20), report_floats, report_floats, report_floats, report_floats,
       verdicts, verdicts)
@example(1, -0.0, 5e-324, 1e300, -1e-300, None, None)
@example(20, 2.2250738585072014e-308, -1e300, 1e-300, 0.0, np.bool_(True), False)
def test_csv_row_format_matches_the_joined_fields(k, gamma, ns2, closed, gap, violated, verdict):
    row = (k, gamma, ns2, closed, gap, violated, verdict)
    line = cli._CSV_ROW(k, gamma, ns2, closed, gap, cli._CSV_BOOL[violated], cli._CSV_BOOL[verdict])
    assert line == bf_csv_line(*row)


def at_most_three_if_an_integer(text: str) -> bool:
    try:
        return int(text) <= 3
    except ValueError:
        return True


def a_small_grid_if_a_sweep(text: str) -> bool:
    try:
        return sweep_values(parse_sweep(text)).length <= 5
    except (ConfigError, ValueError):
        return True


# arbitrary strings and numbers; none starts like a long flag, and none is an
# absolute path or leaves the working directory, so a run writes only there
arbitrary = (st.text(max_size=8) | st.integers().map(str) | st.floats().map(str)).filter(
    lambda text: not text.startswith("--") and not os.path.isabs(text) and ".." not in text)
# per flag, values that pass, so that a drawn argv often runs (cheaply: n <= 3,
# at most 3 points per sweep axis)
passing_flag_values = {
    "--config": st.just("config.json"), "--certify-table": st.just("table.json"),
    "--n": st.sampled_from(["1", "2", "3"]), "--epsilon": st.sampled_from(["1e-3", "0.05"]),
    "--recursion": st.sampled_from(["printed", "normalized", "both"]),
    "--out-csv": st.just("out.csv"), "--out-json": st.just("out.json"),
    **{flag: st.sampled_from(["pi/4", "0.3", "pi/8"])
       for flag in ("--alpha", "--theta", "--delta")},
    **{flag: st.sampled_from(["0.1:0.3:0.1", "pi/8:pi/4:pi/16"])
       for flag in ("--sweep-delta", "--sweep-theta", "--sweep-alpha")},
}
flag_values = {flag: values | arbitrary.filter(at_most_three_if_an_integer if flag == "--n"
                                                else a_small_grid_if_a_sweep)
               for flag, values in passing_flag_values.items()}
PATH_FLAGS = ("--config", "--certify-table", "--out-csv", "--out-json")
for flag in PATH_FLAGS:
    flag_values[flag] |= st.sampled_from(["", " ", "  ", "\t"])
SWITCHES = ("--auto-delta", "--certify", "--help")


@st.composite
def argvs(draw):
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(flag_values) + list(SWITCHES)),
                              max_size=6)):
        argv.append(flag)
        if flag in flag_values:
            argv.append(draw(flag_values[flag]))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argvs())
@example(["--certify-table", ""])
@example(["--config", ""])
@example(["--certify-table", "table.json", "--out-json", "  "])
@example(["--config", "config.json", "--n", "3", "--certify", "--sweep-theta", "0.1:0.3:0.1"])
def test_any_flag_combination_exits_cleanly(argv):
    # ends in exit 0, in exit 1 with one error line, or in argparse's exit 2
    # with its usage and one error line; never raises.  An exit 0 gave no path
    # flag a blank value and left no file but the reports argv names.
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        with open("config.json", "w", encoding="utf-8") as handle:
            json.dump({"n": 2}, handle)
        write_table("table.json", np.full((2,) * 6, 0.125))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: --help, or a usage error
                code = exc.code
        left = set(os.listdir())
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        # the last value of a repeated flag is the one that counts
        paths = {flag: value for flag, value in zip(argv, argv[1:]) if flag in PATH_FLAGS}
        reports = {os.path.normpath(value) for flag, value in zip(argv, argv[1:])
                   if flag in ("--out-csv", "--out-json")}
        if "--help" not in argv:
            assert all(value.strip() for value in paths.values()), argv
            assert left <= {"config.json", "table.json"} | reports, (argv, left)
    elif code == 1:
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert code == 2
        assert err.endswith("\n") and err.splitlines()[-1].startswith("nsshare: error: ")
        assert sum("error: " in line for line in err.splitlines()) == 1
