"""Batch front end: point runs, parameter sweeps, claim-audit reports, certification.

A run evaluates the inequality round by round (exact engine value next to the
closed form), optionally certifies each round's behavior against the hybrid
polytope, and writes a per-round CSV plus a JSON summary.  Sweeps audit the
"arbitrarily many violating rounds" claim over a (delta, theta[, alpha]) grid
and report the maximal violating round observed per recursion variant.
Everything is deterministic: two runs with the same config produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields

from .behavior_io import atomic_write_text, import_behavior, read_json
from .certifier import lp_feasible
# run_sequence stays importable from here: perfbench/layers.py wraps cli.run_sequence
from .engine import BehaviorTable, run_sequence, run_stack  # noqa: F401
from .inequality import SignalingTableError, closed_form_ns2, is_violation, ns2_value, ns2_values
from .measurements import RECURSION_VARIANTS, gamma_sequence, validity_region
from .states import build_gghz

CSV_HEADER = "k,gamma_k,ns2_oracle,ns2_closed_form,discrepancy,violated,lp_feasible"

# a sweep axis may hold at most this many steps, (stop - start) / step
SWEEP_MAX_POINTS = 10**6

_ANGLE_RE = re.compile(r"([+-]?\d*\.?\d*(?:[eE][+-]?\d+)?)\*?pi(?:/(\d+(?:\.\d*)?))?")


class ConfigError(ValueError):
    pass


def parse_angle(value) -> float:
    """Angles in radians; 'pi'-literals like 'pi/4', '3pi/8' or '0.5*pi' stay exact."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    text = str(value).strip().lower().replace(" ", "")
    if "pi" in text:
        match = _ANGLE_RE.fullmatch(text)
        if not match:
            raise ConfigError(f"cannot parse angle {value!r}")
        coefficient, denominator = match.group(1), match.group(2)
        if coefficient in ("", "+"):
            factor = 1.0
        elif coefficient == "-":
            factor = -1.0
        else:
            factor = float(coefficient)
        angle = factor * math.pi
        if denominator:
            angle /= float(denominator)
        return angle
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse angle {value!r}") from exc


def parse_sweep(value) -> tuple[float, float, float] | None:
    """Sweep spec 'start:stop:step' (each an angle literal) -> inclusive grid bounds."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)) and len(value) == 3:
        start, stop, step = (parse_angle(v) for v in value)
    else:
        parts = str(value).split(":")
        if len(parts) != 3:
            raise ConfigError(f"sweep spec must be start:stop:step, got {value!r}")
        start, stop, step = (parse_angle(p) for p in parts)
    for name, bound in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(bound):
            raise ConfigError(f"sweep {name} must be finite, got {bound!r} in {value!r}")
    if step <= 0:
        raise ConfigError(f"sweep step must be positive, got {step!r}")
    if stop < start:
        raise ConfigError(f"sweep range must satisfy start <= stop, got {value!r}")
    if (stop - start) / step > SWEEP_MAX_POINTS:
        raise ConfigError(f"sweep {value!r} has more than {SWEEP_MAX_POINTS} points")
    return (start, stop, step)


def sweep_values(spec: tuple[float, float, float]) -> list[float]:
    start, stop, step = spec
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + 1e-12:
            break
        values.append(v)
        i += 1
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 1
    alpha: float = math.pi / 4
    theta: float = math.pi / 4
    delta: float = math.pi / 4
    epsilon: float = 1e-3
    auto_delta: bool = False
    recursion: str = "printed"
    certify: bool = False
    sweep_delta: tuple[float, float, float] | None = None
    sweep_theta: tuple[float, float, float] | None = None
    sweep_alpha: tuple[float, float, float] | None = None
    out_csv: str | None = None
    out_json: str | None = None

    def validate(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ConfigError(f"n must be an integer, got {self.n!r}")
        for name in ("auto_delta", "certify"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in ("alpha", "theta", "delta", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n < 1:
            raise ConfigError(f"n must be at least 1, got {self.n!r}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.recursion not in RECURSION_VARIANTS + ("both",):
            raise ConfigError(f"recursion must be printed, normalized or both, got {self.recursion!r}")
        for name in _CONFIG_SWEEPS:  # a config built in code skips build_config
            if getattr(self, name) is not None:
                parse_sweep(getattr(self, name))
        if self.auto_delta and self.sweep_delta is not None:
            raise ConfigError("auto_delta and sweep_delta are mutually exclusive")
        for name in ("out_csv", "out_json"):
            value = getattr(self, name)
            if value is not None and not str(value).strip():
                raise ConfigError(f"{name} must be a nonempty path when given")

    @property
    def variants(self) -> tuple[str, ...]:
        return RECURSION_VARIANTS if self.recursion == "both" else (self.recursion,)

    @property
    def is_sweep(self) -> bool:
        return any(s is not None for s in (self.sweep_delta, self.sweep_theta, self.sweep_alpha))


_CONFIG_ANGLES = ("alpha", "theta", "delta")
_CONFIG_SWEEPS = ("sweep_delta", "sweep_theta", "sweep_alpha")
_CONFIG_KEYS = tuple(field.name for field in fields(ExperimentConfig))


def load_config_file(path: str) -> dict:
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return data


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then config file, then flags (flags win on conflict)."""
    merged: dict = {}
    if args.config:
        merged.update(load_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    for key in _CONFIG_ANGLES:
        if key in merged:
            merged[key] = parse_angle(merged[key])
    for key in _CONFIG_SWEEPS:
        if key in merged and merged[key] is not None:
            merged[key] = parse_sweep(merged[key])
    if "epsilon" in merged:
        merged["epsilon"] = float(merged["epsilon"])
    config = ExperimentConfig(**merged)
    config.validate()
    return config


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _bool(value) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def _resolve_schedule(config: ExperimentConfig, variant: str, delta: float, rounds: int):
    """Schedule for one variant; --auto-delta replaces delta by the search result.

    Refuses a schedule whose valid prefix is shorter than rounds.
    """
    if config.auto_delta:
        delta = validity_region(config.n, config.epsilon, variant)
        if delta is None:
            raise ConfigError(
                f"auto_delta: no valid delta exists for n={config.n} ({variant})"
            )
    schedule = gamma_sequence(delta, config.epsilon, config.n, variant)
    if schedule.valid_upto < rounds:
        raise ConfigError(
            f"schedule truncated: gamma_{len(schedule.gammas)} = {schedule.gammas[-1]:.6f} "
            f"leaves [0, 1] at delta={delta:.6g} ({variant}); valid_upto={schedule.valid_upto}. "
            f"Reduce --n or pass --auto-delta."
        )
    return delta, schedule


def _round_rows(config: ExperimentConfig, schedule, thetas, alpha: float,
                rounds: int) -> Iterator[list[dict]]:
    """Yields, per theta, the rows of rounds 1..rounds; all thetas run as one engine stack."""
    oracles, tables = [], []
    for round_tables in run_stack(build_gghz(alpha), thetas, schedule, rounds):
        oracles.append(ns2_values(round_tables).tolist())
        if config.certify:
            tables.append(round_tables)
    for n, theta in enumerate(thetas):
        rows = []
        for k in range(1, rounds + 1):
            oracle = oracles[k - 1][n]
            closed = closed_form_ns2(k, alpha, theta, schedule.gammas)
            verdict = None
            if config.certify:
                verdict = lp_feasible(BehaviorTable(tables[k - 1][n], k)).feasible
            rows.append({
                "k": k,
                "gamma": schedule.gammas[k - 1],
                "ns2_oracle": oracle,
                "ns2_closed_form": closed,
                "discrepancy": abs(oracle - closed),
                "violated": is_violation(oracle),
                "lp_feasible": verdict,
            })
        yield rows


def _csv_line(entry: dict) -> str:
    return ",".join([
        str(entry["k"]),
        _fmt(entry["gamma"]),
        _fmt(entry["ns2_oracle"]),
        _fmt(entry["ns2_closed_form"]),
        _fmt(entry["discrepancy"]),
        _bool(entry["violated"]),
        _bool(entry["lp_feasible"]),
    ])


def _params_dict(config: ExperimentConfig) -> dict:
    params = asdict(config)
    del params["out_csv"], params["out_json"]
    return params


def _grid(config: ExperimentConfig, variant: str) -> Iterator[tuple]:
    """Yields (delta, schedule, theta, alpha, rows) over the run's (delta, alpha, theta) grid.

    Each axis is its sweep or the single configured value, so a point run is
    the one-point grid.  A point run needs all n rounds, a sweep row runs the
    schedule's valid rounds but at least one.
    """
    deltas = sweep_values(config.sweep_delta) if config.sweep_delta else [config.delta]
    thetas = sweep_values(config.sweep_theta) if config.sweep_theta else [config.theta]
    alphas = sweep_values(config.sweep_alpha) if config.sweep_alpha else [config.alpha]
    needed = 1 if config.is_sweep else config.n
    for delta in deltas:
        resolved_delta, schedule = _resolve_schedule(config, variant, delta, needed)
        rounds = min(config.n, schedule.valid_upto)
        # one engine stack per (delta, variant, alpha) row, over the theta axis
        stacks = [_round_rows(config, schedule, thetas, alpha, rounds) for alpha in alphas]
        for theta, *alpha_rows in zip(thetas, *stacks):
            for alpha, rows in zip(alphas, alpha_rows):
                yield resolved_delta, schedule, theta, alpha, rows


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the configured run and write the CSV / JSON reports."""
    config.validate()
    csv_lines = []
    variants_summary = {}
    for variant in config.variants:
        sweep = {"points": 0, "rows": 0, "violations": 0,
                 "max_violating_k": None, "max_violating": None, "max_ns2": None}
        for delta, schedule, theta, alpha, rows in _grid(config, variant):
            sweep["points"] += 1
            sweep["rows"] += len(rows)
            csv_lines.extend(_csv_line(row) for row in rows)
            for row in rows:
                record = {"delta": delta, "theta": theta, "alpha": alpha,
                          "k": row["k"], "ns2": row["ns2_oracle"]}
                if sweep["max_ns2"] is None or record["ns2"] > sweep["max_ns2"]["ns2"]:
                    sweep["max_ns2"] = record
                if row["violated"]:
                    sweep["violations"] += 1
                    best = sweep["max_violating"]
                    if best is None or (record["k"], record["ns2"]) > (best["k"], best["ns2"]):
                        sweep["max_violating"], sweep["max_violating_k"] = record, row["k"]
        if config.is_sweep:
            variants_summary[variant] = sweep
            continue
        # the one-point grid: its schedule and rows, in the point shape
        point = {
            "delta": delta,
            "gammas": list(schedule.gammas),
            "valid_upto": schedule.valid_upto,
            "rounds": rows,
            "max_violating_k": sweep["max_violating_k"],
        }
        if config.certify:
            point["certifier_verdicts"] = {str(row["k"]): row["lp_feasible"] for row in rows}
        variants_summary[variant] = point
    mode = "sweep" if config.is_sweep else "point"
    summary = {"mode": mode, "params": _params_dict(config), "variants": variants_summary}
    if config.out_csv:
        atomic_write_text(config.out_csv, "\n".join([CSV_HEADER] + csv_lines) + "\n")
    if config.out_json:
        atomic_write_text(config.out_json, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _certify_table_command(path: str, out_json: str | None) -> int:
    table = import_behavior(path)
    try:
        value = ns2_value(table)
    except SignalingTableError as exc:
        print(f"certification refused: table is signaling "
              f"({exc.label} varies by {exc.residual:.3e})", file=sys.stderr)
        return 1
    result = lp_feasible(table)
    verdict = "nonsignal-local" if result.feasible else "genuinely nonsignal nonlocal"
    print(f"ns2 = {value:.9g} (bound 3); verdict: {verdict}")
    print(result.certificate)
    if out_json:
        payload = {
            "table": path,
            "ns2": value,
            "feasible": result.feasible,
            "residual": result.residual,
            "certificate": result.certificate,
            "group_weights": result.group_weights,
        }
        atomic_write_text(out_json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsshare",
        description="Sequential tripartite nonlocality sharing: simulate, audit, certify.",
    )
    parser.add_argument("--config", help="flat JSON config file; flags win on conflict")
    parser.add_argument("--n", type=int, help="number of sequential rounds")
    parser.add_argument("--alpha", help="initial-state angle (radians or pi-literal)")
    parser.add_argument("--theta", help="Charlie measurement angle")
    parser.add_argument("--delta", help="schedule parameter delta in (0, pi/4]")
    parser.add_argument("--epsilon", type=float, help="schedule parameter epsilon > 0")
    parser.add_argument("--auto-delta", dest="auto_delta", action="store_true",
                        default=None, help="take delta from the validity-region search")
    parser.add_argument("--recursion", choices=("printed", "normalized", "both"),
                        help="sharpness recursion variant to run")
    parser.add_argument("--certify", action="store_true", default=None,
                        help="LP-certify every produced behavior table")
    parser.add_argument("--sweep-delta", dest="sweep_delta", help="delta sweep start:stop:step")
    parser.add_argument("--sweep-theta", dest="sweep_theta", help="theta sweep start:stop:step")
    parser.add_argument("--sweep-alpha", dest="sweep_alpha", help="alpha sweep start:stop:step")
    parser.add_argument("--out-csv", dest="out_csv", help="per-round CSV output path")
    parser.add_argument("--out-json", dest="out_json", help="JSON summary output path")
    parser.add_argument("--certify-table", dest="certify_table", metavar="PATH",
                        help="certify a behavior-table JSON file instead of running")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.certify_table:
            return _certify_table_command(args.certify_table, args.out_json)
        config = build_config(args)
        summary = run_experiment(config)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for variant, data in summary["variants"].items():
        print(f"{variant}: max violating k = {data['max_violating_k']}")
    if config.out_csv:
        print(f"wrote {config.out_csv}")
    if config.out_json:
        print(f"wrote {config.out_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
