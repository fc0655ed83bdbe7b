"""Command-line front end: parse a JSON scenario config, dispatch to the
computational modules, and emit a deterministic JSON report on stdout.

Exit codes: 0 = computed and the classical constraint held where one applies;
1 = computed and the constraint is violated (a scientific result, not an
error); 2 = input or validation error; 3 = internal error (a bug, reported as
strict JSON with ``"kind": "internal"`` and no traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import inspect
import json
import math
import os
import stat
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from . import __version__
from .entropy import (
    CLASSICAL_KINDS,
    QUANTUM_KINDS,
    ClassicalDistribution,
    HorodeckiReport,
    bell_purity_bound,
    entropy_report,
    linear_entropy_criterion,
)
from .feasibility import (
    MarginalSet,
    contextuality_demo,
    joint_feasible,
    marginals_from_scenario,
)
from .hidden_vars import build_hv_model, verify_model
from .linalg import DEFAULT_TOL, MAX_DIM, SLACK_TOL, DensityOperator, matrix_from_lists
from .logic import Proposition, distance, quad_check, triangle_check
from .scenario import (
    TSIRELSON_BOUND,
    BellScenario,
    _within_classical_bound,
    beta,
    chsh_value,
    correlations,
    direction_vector,
    epr_min_separation,
    preset_state,
)
from .sweeps import SWEEP_TOLERANCES, SWEEPS, run_sweep

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


class ConfigError(ValueError):
    """Config problem with a field-path diagnostic."""


def _is_kind(value: Any, kind: type | tuple[type, ...]) -> bool:
    """isinstance, except that a JSON boolean is not a number."""
    if kind is object:
        return True
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


@contextlib.contextmanager
def _at(where: str, errors: type[Exception] = ValueError):
    """Report an ``errors`` exception raised inside as a ConfigError at ``where``; a ConfigError passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _is_finite_number(value: Any) -> bool:
    """A JSON number: not a boolean, NaN or an infinity."""
    return _is_kind(value, (int, float)) and math.isfinite(value)


def _json_int(text: str) -> int:
    """A JSON integer, which like every JSON number must fit a float."""
    value = int(text)
    float(value)  # OverflowError beyond the float range
    return value


def _expect_fields(obj: Any, where: str, required: dict[str, type], optional: dict[str, type] = {}):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    for name, kind in required.items():
        if name not in obj:
            raise ConfigError(f"{where}.{name}: required field missing")
        if not _is_kind(obj[name], kind):
            raise ConfigError(f"{where}.{name}: expected {kind.__name__}")
    for name in obj:
        if name not in required and name not in optional:
            raise ConfigError(f"{where}.{name}: unknown field")
        if name in optional and not _is_kind(obj[name], optional[name]):
            raise ConfigError(f"{where}.{name}: expected {optional[name].__name__}")


def _load_config(path: str, command: str, required: dict[str, type], optional: dict[str, type]) -> dict:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(raw, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    except OverflowError:
        raise ConfigError(f"{path}: invalid JSON: an integer exceeds the float range") from None
    _expect_fields(config, command, {"schema": int, **required}, optional)
    if config["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"{command}.schema: expected {SCHEMA_VERSION}, got {config['schema']}")
    return config


def _parse_state(node, where: str) -> DensityOperator:
    if isinstance(node, str):
        with _at(where):
            return preset_state(node)
    _expect_fields(node, where, {"matrix": list})
    with _at(f"{where}.matrix"):
        return DensityOperator(matrix_from_lists(node["matrix"]))


def _parse_dims(node, where: str) -> tuple[int, int]:
    """Subsystem dimensions [M, N]: two positive ints (bools excluded), M*N <= MAX_DIM."""
    if not (isinstance(node, list) and len(node) == 2 and all(_is_kind(x, int) and x >= 1 for x in node)):
        raise ConfigError(f"{where}: expected two positive integers [M, N], got {node!r}")
    m, n = node
    if m * n > MAX_DIM:
        raise ConfigError(f"{where}: M*N = {m * n} exceeds the supported maximum {MAX_DIM}")
    return m, n


def _parse_scenario(config: dict, state: DensityOperator, command: str) -> BellScenario:
    """The scenario of exactly one of ``directions`` (angle pairs, two qubits) or ``observables`` (matrices)."""
    has_dirs = "directions" in config
    if has_dirs == ("observables" in config):
        raise ConfigError(f"{command}: provide exactly one of 'directions' or 'observables'")
    field = "directions" if has_dirs else "observables"
    where, node = f"{command}.{field}", config[field]
    _expect_fields(node, where, {k: list for k in "abcd"})
    if not has_dirs:
        with _at(where):
            return BellScenario(*(matrix_from_lists(node[k]) for k in "abcd"), state=state)
    for k in "abcd":
        if len(node[k]) != 2 or not all(map(_is_finite_number, node[k])):
            raise ConfigError(f"{where}.{k}: expected [theta_deg, phi_deg]")
    if state.dim != 4:
        raise ConfigError(f"{command}.state: direction-based scenarios need a two-qubit state")
    return BellScenario.from_directions(state, *(direction_vector(*map(float, node[k])) for k in "abcd"))


def _parse_labelled(items: list, where: str, make) -> dict:
    """A ``[{label, matrix}]`` list as {label: make(label, matrix)}, read item by item in order."""
    out = {}
    for i, item in enumerate(items):
        _expect_fields(item, f"{where}[{i}]", {"label": str, "matrix": list})
        if item["label"] in out:
            raise ConfigError(f"{where}[{i}].label: duplicate label {item['label']!r}")
        with _at(f"{where}[{i}].matrix"):
            out[item["label"]] = make(item["label"], matrix_from_lists(item["matrix"]))
    return out


#: JSON text of the scalar types a report holds other than float, by exact type.
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: {True: "true", False: "false"}.get,
                 type(None): {None: "null"}.get}


def _encode(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False)`` byte for
    byte, errors included, on what a report holds, without the pure-Python encoder ``indent`` forces."""
    kind = type(value)
    if kind is dict or kind is list or kind is tuple:
        inner = indent + " "
        if kind is dict:
            items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(value.items())]
        else:
            items = [_encode(v, inner) for v in value]
        ends = "{}" if kind is dict else "[]"
        return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends
    if kind is float or kind is np.float64:
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    text = _JSON_SCALARS.get(kind)
    if text is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return text(value)


def _print(text: str) -> None:
    """Print a line on stdout. A closed stdout (its reader gone) leaves the request's exit code as it is:
    stdout becomes ``os.devnull``, as in Python's "Note on SIGPIPE", so the flush at exit cannot raise."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(report: dict, timing_ms: float | None) -> None:
    if timing_ms is not None:
        report = {**report, "wall_time_ms": round(timing_ms, 3)}
    _print(_encode(report))


def _report(command: str, config, results: dict) -> dict:
    return {"command": command, "config": config, "results": results, "version": __version__}


@contextlib.contextmanager
def _csv_output(path: str | None):
    """Yield a list of rows that is written to ``path``, if one is given, once the block succeeds.

    The path is opened on entry, so an unwritable one is rejected before any computation, and a file the
    open created is removed if the block fails. The rows leave ``open(path, "w", newline="")``'s bytes and
    new-file mode, written in place (not atomically) and then cut to length, which costs a fraction of
    truncating to zero first; ``/dev/null`` and pipes are not cut."""
    rows: list[list] = []
    if not path:
        yield rows
        return
    with _at(f"cannot write CSV {path}", OSError):
        created = not os.path.exists(path)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        yield rows
    except BaseException:
        os.close(fd)
        if created:
            os.unlink(os.path.realpath(path))
        raise
    with _at(f"cannot write CSV {path}", OSError), open(fd, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_chsh(args) -> tuple[dict, int]:
    config = _load_config(args.config, "chsh", {"state": object},
                          {"directions": dict, "observables": dict})
    s = _parse_scenario(config, _parse_state(config["state"], "chsh.state"), "chsh")
    with _at("chsh.state"):  # an accepted state's slack can carry a correlation past 1
        corr = correlations(s)
    b = beta(s)
    violated = not _within_classical_bound(b)  # beta is finite: the +-1 rule and the state check reject NaN and inf
    results = {
        "beta": b,
        "abs_beta": abs(b),
        "chsh_from_correlations": chsh_value(corr),
        "correlations": corr._asdict(),
        "tsirelson_margin": TSIRELSON_BOUND - abs(b),
        "classical_bound_satisfied": not violated,
    }
    return _report("chsh", config, results), EXIT_VIOLATION if violated else EXIT_OK


def _cmd_feasibility(args) -> tuple[dict, int]:
    config = _load_config(args.config, "feasibility", {},
                          {"marginals": dict, "state": object,
                           "directions": dict, "observables": dict, "contexts": bool})
    if "marginals" in config:
        if "state" in config or "directions" in config or "observables" in config:
            raise ConfigError("feasibility: give either marginals or a scenario, not both")
        if "contexts" in config:
            raise ConfigError("feasibility.contexts: does not apply to marginals")
        with _at("feasibility.marginals"):
            marginals = MarginalSet.from_dict(config["marginals"])
        demo, verdict = None, joint_feasible(marginals)
    elif "state" not in config:
        raise ConfigError("feasibility.state: required field missing")
    else:
        scenario = _parse_scenario(config, _parse_state(config["state"], "feasibility.state"), "feasibility")
        with _at("feasibility.state"):  # an accepted state's slack can carry a marginal or weight out of range
            demo = contextuality_demo(scenario) if config.get("contexts") else None
            marginals = marginals_from_scenario(scenario) if demo is None else demo.marginals
            verdict = joint_feasible(marginals) if demo is None else demo.verdict
    results = {
        "marginals": marginals._asdict(),
        "feasible": verdict.feasible,
        "fine_criterion": verdict.fine_criterion,
        "chsh_values": list(verdict.chsh_values),
        "witness": None if verdict.witness is None else verdict.witness.weights.tolist(),
    }
    if demo is not None:
        results["contexts"] = {label: v._asdict() for label, v in demo.context_verifications.items()}
        results["all_commuting"] = demo.all_commuting
    return _report("feasibility", config, results), EXIT_OK if verdict.feasible else EXIT_VIOLATION


def _cmd_hv(args) -> tuple[dict, int]:
    config = _load_config(args.config, "hv", {"state": object, "observables": list}, {})
    state = _parse_state(config["state"], "hv.state")
    ops = _parse_labelled(config["observables"], "hv.observables", lambda label, matrix: matrix)
    with _csv_output(args.csv) as table:
        with _at("hv.observables"):
            model = build_hv_model(state, ops)
        verification = verify_model(model, state, ops)
        if args.csv:
            table += model.to_rows()
    results = {
        "atoms": list(model.atoms),
        "weights": model.weights.tolist(),
        "values": {k: v.tolist() for k, v in model.value_tables.items()},
        **verification._asdict(),
    }
    held = verification.max_error <= DEFAULT_TOL and verification.linearity_error <= DEFAULT_TOL
    return _report("hv", config, results), EXIT_OK if held else EXIT_VIOLATION


def _cmd_entropy(args) -> tuple[dict, int]:
    config = _load_config(args.config, "entropy", {"kind": str},
                          {"state": object, "classical": dict, "dims": list,
                           "directions": dict, "observables": dict})
    kind = config["kind"]
    base = args.base
    dims = _parse_dims(config["dims"], "entropy.dims") if "dims" in config else None

    if ("state" in config) == ("classical" in config):
        raise ConfigError("entropy: provide exactly one of 'state' or 'classical'")

    if "classical" in config:
        classical = config["classical"]
        _expect_fields(classical, "entropy.classical", {"weights": list}, {"dims": list})
        if "dims" in classical and dims is not None:
            raise ConfigError("entropy.dims: give classical dims once, here or in entropy.classical.dims")
        for field in ("directions", "observables"):
            if field in config:
                raise ConfigError(f"entropy.{field}: does not apply to classical input")
        cdims = classical.get("dims")
        cdims = _parse_dims(cdims, "entropy.classical.dims") if cdims is not None else dims
        for i, w in enumerate(classical["weights"]):
            if not _is_finite_number(w):
                raise ConfigError(f"entropy.classical.weights[{i}]: expected a finite number, got {w!r}")
        with _at("entropy.classical"):
            dist = ClassicalDistribution(classical["weights"], dims=cdims)
        if kind not in CLASSICAL_KINDS:
            raise ConfigError(f"entropy.kind: {kind!r} does not apply to classical input")
        with _at("entropy.classical.dims"):  # a distribution without dims has no sides
            rep = entropy_report(dist, kind, base=base)
        gap = rep.monotonicity
        results: dict[str, Any] = {"monotonicity_slack": gap}
    else:
        if dims is None:
            raise ConfigError("entropy.dims: required for a quantum state")
        state = _parse_state(config["state"], "entropy.state")
        if kind not in QUANTUM_KINDS:
            raise ConfigError(f"entropy.kind: {kind!r} does not apply to quantum input")
        with _at("entropy.dims"):  # dims that do not factor the state's dimension
            rep = entropy_report(state, kind, dims=dims, base=base)
        vn = rep if kind == "von_neumann" else entropy_report(state, "von_neumann", dims=dims, base=base)
        verdict = linear_entropy_criterion(state, dims)
        gap = vn.monotonicity
        results = {
            "triangle_slack": vn.triangle,
            "monotonicity_gap": gap,
            "monotonicity_holds": gap >= -SLACK_TOL,
            "linear_entropy_condition": {
                "lhs": verdict.lhs, "rhs": verdict.rhs, "holds": verdict.holds,
                "purity_margin": verdict.purity_margin,
                "beta_bound_implied": verdict.beta_bound_implied,
            },
            "entropic_condition_holds": HorodeckiReport.of(vn).condition_holds,
        }
        if "directions" in config or "observables" in config:
            results["purity_bound_slack"] = bell_purity_bound(_parse_scenario(config, state, "entropy"))
    results.update(entropies=rep._asdict(), subadditivity_slack=rep.subadditivity)
    return _report("entropy", config, results), EXIT_VIOLATION if gap < -SLACK_TOL else EXIT_OK


def _cmd_sweep(args) -> tuple[dict, int]:
    config = _load_config(args.config, "sweep", {"property": str, "samples": int},
                          {"dims": list, "dim": int, "dims_list": list})
    if config["samples"] < 1:
        raise ConfigError(f"sweep.samples: expected a positive integer, got {config['samples']}")
    params = {}
    if "dims" in config:
        params["dims"] = _parse_dims(config["dims"], "sweep.dims")
    if "dim" in config:
        if not 1 <= config["dim"] <= MAX_DIM:
            raise ConfigError(f"sweep.dim: expected an integer in [1, {MAX_DIM}], got {config['dim']}")
        params["dim"] = config["dim"]
    if "dims_list" in config:
        if not config["dims_list"]:
            raise ConfigError("sweep.dims_list: expected at least one [M, N] pair")
        params["dims_list"] = tuple(
            _parse_dims(d, f"sweep.dims_list[{i}]") for i, d in enumerate(config["dims_list"])
        )
    name = config["property"]
    if name not in SWEEPS:
        raise ConfigError(f"sweep.property: unknown sweep {name!r}; available: {sorted(SWEEPS)}")
    for field in params:
        if field not in inspect.signature(SWEEPS[name]).parameters:
            raise ConfigError(f"sweep.{field}: not accepted by property {name!r}")
    if args.seed < 0:
        raise ConfigError(f"sweep.seed: expected a non-negative integer, got {args.seed}")
    with _csv_output(args.csv) as table, _at("sweep"):
        rows, min_slack = run_sweep(name, config["samples"], seed=args.seed, **params)
        if args.csv:
            table += [["seed", "kind", "slack"], *rows]  # a SweepRow is a (seed, kind, slack) tuple
    tolerance = SWEEP_TOLERANCES[name]
    passed = bool(min_slack >= -tolerance)  # a numpy bool is not JSON
    results = {
        "property": name,
        "samples": config["samples"],
        "seed": args.seed,
        "rows": len(rows),
        "min_slack": min_slack,
        "tolerance": tolerance,
        "pass": passed,
    }
    return _report("sweep", config, results), EXIT_OK if passed else EXIT_VIOLATION


#: Each logic check type: the field holding its proposition labels, how many
#: it takes, and the checker called on them and the state.
_LOGIC_CHECKS = {
    "distance": ("pair", 2, distance),
    "triangle": ("triple", 3, triangle_check),
    "quad": ("quad", 4, quad_check),
}
_COUNT_WORDS = {2: "two", 3: "three", 4: "four"}


def _cmd_logic(args) -> tuple[dict, int]:
    config = _load_config(args.config, "logic",
                          {"state": object, "propositions": list, "checks": list}, {})
    state = _parse_state(config["state"], "logic.state")
    props = _parse_labelled(config["propositions"], "logic.propositions", Proposition)
    outcomes = []
    for i, check in enumerate(config["checks"]):
        where = f"logic.checks[{i}]"
        _expect_fields(check, where, {"type": str}, {field: list for field, _, _ in _LOGIC_CHECKS.values()})
        kind = check["type"]
        if kind not in _LOGIC_CHECKS:
            raise ConfigError(f"{where}.type: unknown check type {kind!r}")
        field, count, checker = _LOGIC_CHECKS[kind]
        for other in check:
            if other not in ("type", field):
                raise ConfigError(f"{where}.{other}: does not apply to a {kind!r} check")
        labels = check.get(field)
        if not labels or len(labels) != count:
            raise ConfigError(f"{where}.{field}: expected {_COUNT_WORDS[count]} labels")
        for label in labels:
            if not isinstance(label, str) or label not in props:
                raise ConfigError(f"{where}: unknown proposition {label!r}")
        with _at(where):
            rep = checker(*(props[label] for label in labels), state)
        outcomes.append({"type": kind, field: labels, **rep._asdict()})
    held = all(outcome.get("holds", True) for outcome in outcomes)  # a distance has no verdict
    return _report("logic", config, {"checks": outcomes}), EXIT_OK if held else EXIT_VIOLATION


def _cmd_epr_distance(args) -> tuple[dict, int]:
    try:
        d = epr_min_separation(args.L, args.v)
    except ValueError as exc:  # each text begins with the quantity at fault: a flag's, or the separation
        flag = {"apparatus": ".L", "velocity": ".v"}.get(str(exc).split()[0], "")
        raise ConfigError(f"epr-distance{flag}: {exc}") from exc
    results = {"min_separation_m": d, "apparatus_length_m": args.L, "velocity_ms": args.v}
    return _report("epr-distance", {"L": args.L, "v": args.v}, results), EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument error is an input error like any other (strict JSON, exit 2), not SystemExit(2)."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process (parsing does not mutate it); ``commands`` holds each command's parser."""
    parser = _Parser(prog="bellkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name, help):
        """A command's parser with the options every command takes; the caller adds its own."""
        p = parser.commands[name] = sub.add_parser(name, help=help)
        if name != "epr-distance":
            p.add_argument("--config", required=True, help="path to a JSON config (schema field required)")
        p.add_argument("--timing", action="store_true", help="include wall time in the report")
        return p

    csv_help = "write row-level results to a CSV file"
    command("chsh", "CHSH value and Tsirelson margin of a scenario")
    command("feasibility", "joint-distribution feasibility of marginals")
    command("hv", "hidden-variable model for a commuting family").add_argument("--csv", help=csv_help)
    command("entropy", "entropy report and inequality slacks").add_argument(
        "--base", choices=("e", "2"), default="e", help="entropy log base")
    sweep = command("sweep", "randomized property sweep")
    sweep.add_argument("--seed", type=int, default=0, help="base seed of the sweep")
    sweep.add_argument("--csv", help=csv_help)
    command("logic", "distance / triangle / quadrilateral checks")
    epr = command("epr-distance", "minimum spacelike separation 2 L c / v")
    epr.add_argument("--L", type=float, required=True, help="apparatus length in meters")
    epr.add_argument("--v", type=float, required=True, help="particle velocity in m/s")
    return parser


def _parse_request(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with a named command parsed by its own parser alone."""
    parser = build_parser()
    if argv and argv[0] in parser.commands:
        return parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)  # no command, a top-level flag or an unknown word


_HANDLERS = {
    "chsh": _cmd_chsh,
    "feasibility": _cmd_feasibility,
    "hv": _cmd_hv,
    "entropy": _cmd_entropy,
    "sweep": _cmd_sweep,
    "logic": _cmd_logic,
    "epr-distance": _cmd_epr_distance,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_request(sys.argv[1:] if argv is None else argv)
        # No numpy warning reaches stderr: the checks see non-finite values themselves, and inside the
        # try strict JSON encoding rejects one that reaches a report as an input error.
        with np.errstate(all="ignore"):
            started = time.perf_counter()
            report, code = _HANDLERS[args.command](args)
            timing = (time.perf_counter() - started) * 1e3 if args.timing else None
            _emit(report, timing)
    except ValueError as exc:
        _print(json.dumps({"error": str(exc)}, sort_keys=True, allow_nan=False))
        print(f"bellkit: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a bug, never a verdict: exit 3, not a traceback and exit 1
        message = f"{type(exc).__name__}: {exc}"
        _print(json.dumps({"error": message, "kind": "internal"}, sort_keys=True))
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame: where it was raised
            tb = tb.tb_next
        raiser = tb.tb_frame.f_code
        print(f"bellkit: internal error: {message} (raised at {os.path.basename(raiser.co_filename)}:"
              f"{tb.tb_lineno} in {raiser.co_name})", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
