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
import functools
import json
import math
import numbers
import re
import sys
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import asdict, dataclass, fields
from itertools import islice, repeat

import numpy as np

from .behavior_io import atomic_write_text, import_behavior, read_json
from .certifier import WarmStart, lp_feasible
# perfbench/layers.py wraps cli.run_sequence and cli.build_gghz, so both stay importable
from .engine import BehaviorTable, run_sequence, run_stack  # noqa: F401
from .inequality import closed_form_ns2, is_violation, ns2_value, ns2_values
from .measurements import RECURSION_VARIANTS, gamma_sequence, validity_region
from .states import build_gghz, gghz_densities  # noqa: F401

CSV_HEADER = "k,gamma_k,ns2_oracle,ns2_closed_form,discrepancy,violated,lp_feasible"
# a report row is one tuple of these fields, in CSV column order
ROW_KEYS = ("k", "gamma", "ns2_oracle", "ns2_closed_form", "discrepancy", "violated",
            "lp_feasible")
_CSV_ROW = "{},{:.9g},{:.9g},{:.9g},{:.9g},{},{}".format
_CSV_BOOL = {None: "", True: "true", False: "false"}

# a sweep axis may hold at most this many steps, (stop - start) / step
SWEEP_MAX_POINTS = 10**6
# (theta, alpha) pairs per engine stack; each member holds a few kB of states,
# tables and temporaries, so a stack of 256 stays near 1 MB
THETA_CHUNK = 256

_ANGLE_RE = re.compile(r"([+-]?\d*\.?\d*(?:[eE][+-]?\d+)?)\*?pi(?:/(\d+(?:\.\d*)?))?")


class ConfigError(ValueError):
    pass


def _checked(key: str, check: Callable, value):
    """check(value), refusing an integer beyond the float range with the key's name."""
    try:
        return check(value)
    except OverflowError:
        raise ConfigError(f"{key} is too large for a float") from None


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
        if coefficient in ("", "+", "-"):
            coefficient += "1"
        try:  # the pattern also admits non-numbers such as "." or "e5"
            angle = float(coefficient) * math.pi
        except ValueError:
            raise ConfigError(f"cannot parse angle {value!r}") from None
        if denominator:
            if float(denominator) == 0.0:
                raise ConfigError(f"cannot parse angle {value!r}")
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


@dataclass(frozen=True)
class SweepAxis(Sequence):
    """The length values start + i * step of a sweep axis, each a float made when read."""

    start: float
    step: float
    length: int

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index):
        i = range(self.length)[index]
        if isinstance(i, range):
            return [self.start + j * self.step for j in i]
        return self.start + i * self.step


def sweep_values(spec: tuple[float, float, float]) -> SweepAxis:
    """start, start + step, ... up to stop: at most the SWEEP_MAX_POINTS steps parse_sweep allows.

    A value up to 1e-12 past stop still counts, which absorbs the rounding of
    start + i * step; on an axis of steps below 2e-12 the slack is half a step,
    so no value lies more than half a step past stop.  The values rise with i,
    so those that count are a prefix, whose length a bisection finds.
    """
    start, stop, step = spec
    end = stop + min(1e-12, step / 2)
    length = bisect_right(range(SWEEP_MAX_POINTS + 1), end, key=lambda i: start + i * step)
    return SweepAxis(start, step, length)


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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            if not _checked(name, math.isfinite, value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.n < 1:
            raise ConfigError(f"n must be at least 1, got {self.n!r}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.recursion not in RECURSION_VARIANTS + ("both",):
            raise ConfigError(f"recursion must be printed, normalized or both, got {self.recursion!r}")
        for name in _CONFIG_SWEEPS:  # a config built in code skips build_config
            _checked(name, parse_sweep, getattr(self, name))
        if self.auto_delta and self.sweep_delta is not None:
            raise ConfigError("auto_delta and sweep_delta are mutually exclusive")
        for name in ("out_csv", "out_json"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, str) and value.strip()):
                raise ConfigError(f"{name} must be a nonempty path when given, got {value!r}")

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
    if args.config is not None:
        merged.update(load_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    for key in _CONFIG_ANGLES + _CONFIG_SWEEPS:
        if key in merged:
            parse = parse_angle if key in _CONFIG_ANGLES else parse_sweep
            merged[key] = _checked(key, parse, merged[key])
    epsilon = merged.get("epsilon")
    if isinstance(epsilon, str):  # a config file may give "2e-3"; validate checks the rest
        try:
            merged["epsilon"] = float(epsilon)
        except ValueError:
            raise ConfigError(f"epsilon must be a finite number, got {epsilon!r}") from None
    config = ExperimentConfig(**merged)
    config.validate()
    return config


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
            f"schedule truncated: gamma_{len(schedule.gammas)} = {schedule.gammas[-1]!r} "
            f"leaves [0, 1] at delta={float(delta)!r} ({variant}); "
            f"valid_upto={schedule.valid_upto}. Reduce --n or pass --auto-delta."
        )
    return delta, schedule


def _round_rows(schedule, thetas, alphas, rounds: int, warm: WarmStart | None) -> Iterator[tuple]:
    """Yields (theta, alpha, rows of rounds 1..rounds) per pair, theta-major.

    Each row is a tuple of the ROW_KEYS fields.  The pairs run in that order
    through engine stacks of at most THETA_CHUNK members, so a sweep's memory
    grows with neither its theta nor its alpha axis.  Given warm, each table's
    LP continues from the run's latest local one, which lies near the same face.
    """
    pairs = (divmod(m, len(alphas)) for m in range(len(thetas) * len(alphas)))
    while chunk := list(islice(pairs, THETA_CHUNK)):
        chunk_thetas = [thetas[i] for i, _ in chunk]
        chunk_alphas = [alphas[j] for _, j in chunk]
        columns = []  # per round: an iterator over its members' rows
        for k, round_tables in enumerate(run_stack(gghz_densities(chunk_alphas), chunk_thetas,
                                                   schedule, rounds), start=1):
            oracle = ns2_values(round_tables)
            closed = closed_form_ns2(k, np.array(chunk_alphas), chunk_thetas, schedule.gammas)
            verdicts = (lp_feasible(BehaviorTable._from_checked(probs), warm=warm).feasible
                        for probs in round_tables) if warm is not None else repeat(None)
            columns.append(zip(repeat(k), repeat(schedule.gammas[k - 1]), oracle.tolist(),
                               closed.tolist(), abs(oracle - closed).tolist(),
                               is_violation(oracle).tolist(), verdicts))
        # zip(*columns) draws member by member, rounds 1..rounds, so the
        # certifier sees the tables in report order, which its warm start follows
        yield from zip(chunk_thetas, chunk_alphas, zip(*columns))


def _params_dict(config: ExperimentConfig) -> dict:
    params = asdict(config)
    del params["out_csv"], params["out_json"]
    return params


def _grid(config: ExperimentConfig, variant: str, warm: WarmStart | None) -> Iterator[tuple]:
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
        for theta, alpha, rows in _round_rows(schedule, thetas, alphas, rounds, warm):
            yield resolved_delta, schedule, theta, alpha, rows


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the configured run and write the CSV / JSON reports."""
    config.validate()
    csv_lines = [CSV_HEADER] if config.out_csv else None
    warm = WarmStart() if config.certify else None  # one per run: nothing carries over
    variants_summary = {}
    for variant in config.variants:
        points = row_count = violations = 0
        best_ns2, best_violating = -math.inf, (0, -math.inf)  # below every row's ns2, (k, ns2)
        max_ns2 = max_violating = None
        for delta, schedule, theta, alpha, rows in _grid(config, variant, warm):
            points += 1
            row_count += len(rows)
            if csv_lines is not None:
                csv_lines.extend(_CSV_ROW(k, gamma, ns2, closed, gap, _CSV_BOOL[violated],
                                          _CSV_BOOL[verdict])
                                 for k, gamma, ns2, closed, gap, violated, verdict in rows)
            for k, _, ns2, _, _, violated, _ in rows:
                if ns2 > best_ns2:
                    best_ns2 = ns2
                    max_ns2 = {"delta": delta, "theta": theta, "alpha": alpha, "k": k, "ns2": ns2}
                if violated:
                    violations += 1
                    if (k, ns2) > best_violating:
                        best_violating = (k, ns2)
                        max_violating = {"delta": delta, "theta": theta, "alpha": alpha,
                                         "k": k, "ns2": ns2}
        max_violating_k = max_violating["k"] if max_violating else None
        if config.is_sweep:
            variants_summary[variant] = {
                "points": points, "rows": row_count, "violations": violations,
                "max_violating_k": max_violating_k, "max_violating": max_violating,
                "max_ns2": max_ns2,
            }
            continue
        # the one-point grid: its schedule and rows, in the point shape
        point = {
            "delta": delta,
            "gammas": list(schedule.gammas),
            "valid_upto": schedule.valid_upto,
            "rounds": [dict(zip(ROW_KEYS, row)) for row in rows],
            "max_violating_k": max_violating_k,
        }
        if config.certify:
            point["certifier_verdicts"] = {str(row[0]): row[-1] for row in rows}
        variants_summary[variant] = point
    mode = "sweep" if config.is_sweep else "point"
    summary = {"mode": mode, "params": _params_dict(config), "variants": variants_summary}
    if config.out_csv:
        atomic_write_text(config.out_csv, "\n".join(csv_lines) + "\n")
    if config.out_json:
        atomic_write_text(config.out_json, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _certify_table_command(path: str, out_json: str | None) -> int:
    table = import_behavior(path)
    value = ns2_value(table)
    result = lp_feasible(table)
    verdict = "nonsignal-local" if result.feasible else "genuinely nonsignal nonlocal"
    print(f"ns2 = {value:.9g} (bound 3); verdict: {verdict}")
    certificate = result.certificate
    print(certificate)
    if out_json:
        payload = {"table": path, "ns2": value, "feasible": result.feasible,
                   "certificate": certificate}
        if result.feasible:
            payload.update(residual=result.residual, group_weights=result.group_weights)
        else:
            payload.update(functional=result.functional.tolist(), bound=result.bound,
                           margin=result.margin)
        atomic_write_text(out_json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and shared: callers only parse with it."""
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
    args = build_parser().parse_args(argv)
    try:
        for flag, path in (("--certify-table", args.certify_table), ("--config", args.config)):
            if path is not None and not path.strip():
                raise ConfigError(f"{flag} needs a file path, got {path!r}")
        if args.certify_table is not None:
            # it runs nothing, so a run flag would be silently ignored
            ignored = [f"--{key.replace('_', '-')}" for key in ("config",) + _CONFIG_KEYS
                       if key != "out_json" and getattr(args, key) is not None]
            if ignored:
                raise ConfigError(f"--certify-table takes only --out-json, got {', '.join(ignored)}")
            ExperimentConfig(out_json=args.out_json).validate()  # a run's rule for its report
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
