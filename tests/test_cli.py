import json
import math
import re

import numpy as np
import pytest

from nsshare.behavior_io import export_behavior
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
from nsshare.engine import BehaviorTable, behavior
from nsshare.measurements import gamma_sequence, validity_region
from nsshare.states import build_gghz

from conftest import bf_closed_form


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
    for bad in ("pie", "pi/", "two", "pi/4/2", ""):
        with pytest.raises(ConfigError):
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


def test_config_file_and_flag_precedence(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n": 1, "alpha": "pi/8", "certify": True}))
    parser = build_parser()
    args = parser.parse_args(["--config", str(config_path), "--n", "2"])
    config = build_config(args)
    assert config.n == 2  # flag wins
    assert config.alpha == pytest.approx(math.pi / 8)  # file survives
    assert config.certify is True


@pytest.mark.parametrize("entries, message", [
    ({"certify": "false"}, "certify must be true or false, got 'false'"),
    ({"certify": 0}, "certify must be true or false, got 0"),
    ({"auto_delta": "true"}, "auto_delta must be true or false, got 'true'"),
    ({"auto_delta": 1}, "auto_delta must be true or false, got 1"),
    ({"n": 2.9}, "n must be an integer, got 2.9"),
    ({"n": 2.0}, "n must be an integer, got 2.0"),
    ({"n": True}, "n must be an integer, got True"),
    ({"n": "2"}, "n must be an integer, got '2'"),
], ids=["certify-string", "certify-int", "auto_delta-string", "auto_delta-int",
        "n-fraction", "n-float", "n-bool", "n-string"])
def test_config_file_values_are_type_checked(tmp_path, entries, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(entries))
    args = build_parser().parse_args(["--config", str(config_path)])
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build_config(args)


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


def test_config_rejects_unknown_key(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"rounds": 3}))
    parser = build_parser()
    args = parser.parse_args(["--config", str(config_path)])
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(args)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon=0.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(recursion="other").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(auto_delta=True, sweep_delta=(0.1, 0.2, 0.1)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(out_csv="  ").validate()
    # sweeps given in code get the checks of parse_sweep, grid bound included
    for spec in ((0.1, 0.3, 0.0), (0.3, 0.1, 0.1), (0.1, float("nan"), 0.1), (0.1, 0.3, 1e-12)):
        with pytest.raises(ConfigError, match="^sweep "):
            ExperimentConfig(sweep_theta=spec).validate()


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
        "error: schedule truncated: gamma_1 = 2.485281 leaves [0, 1] at delta=0.785398 "
        "(printed); valid_upto=0. Reduce --n or pass --auto-delta.\n"
    )


def test_auto_delta_keeps_schedule_valid(tmp_path):
    json_path = tmp_path / "out.json"
    config = ExperimentConfig(n=3, auto_delta=True, out_json=str(json_path))
    summary = run_experiment(config)
    printed = summary["variants"]["printed"]
    assert printed["valid_upto"] >= 3
    assert all(0.0 <= g <= 1.0 for g in printed["gammas"][:3])
    assert printed["delta"] == pytest.approx(validity_region(3, 1e-3), abs=0)


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
    path = tmp_path / "table.json"
    export_behavior(behavior(build_gghz(math.pi / 4), math.pi / 4, 1.0), str(path))
    code = main(["--certify-table", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "genuinely nonsignal nonlocal" in out


def test_cli_certify_table_refuses_signaling(tmp_path, capsys):
    probs = np.zeros((2, 2, 2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                probs[x, y, z, y, 0, 0] = 1.0
    path = tmp_path / "signaling.json"
    export_behavior(BehaviorTable(probs), str(path))
    code = main(["--certify-table", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "refused" in err
    assert "varies by" in err


def test_cli_certify_table_refuses_nan(tmp_path, capsys):
    path = tmp_path / "nan.json"
    export_behavior(behavior(build_gghz(math.pi / 4), math.pi / 4, 0.5), str(path))
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

    def failing(*args, **kwargs):
        raise RuntimeError("simplex did not terminate within 0 iterations")

    monkeypatch.setattr(simplex, "solve", failing)
    path = tmp_path / "table.json"
    export_behavior(behavior(build_gghz(math.pi / 4), math.pi / 4, 1.0), str(path))
    assert main(["--certify-table", str(path)]) == 1
    assert main(["--n", "1", "--certify"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: simplex did not terminate") == 2


def test_cli_refuses_theta_axis_touching_zero(capsys):
    code = main(["--n", "2", "--sweep-theta", "0:pi/2:0.5"])
    assert code == 1
    assert capsys.readouterr().err == "error: theta must lie in (0, pi/2), got 0.0\n"


def test_cli_reports_config_errors(capsys):
    code = main(["--delta", "nonsense"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
