"""Command-line front end.

Commands map one-to-one onto library calls:

    REPORT / SSUB   second-order bundle at (X, y, H), oracle attached
    SUBDERIV        directional derivative dg(X)(H)
    CRITCONE        both critical cone tests (structural and definitional)
    SEMIDERIV       second semiderivative on the smooth branch
    PROX            proximal point at parameter gamma
    VERIFY          run the shipped self-check suite

Reports are JSON documents with every numeric field either finite or the
string "+inf".  A determinism hash covers the whole document except the
timestamp, so identical jobs with identical seeds can be diffed by hash.

Exit codes: 0 success (and, for VERIFY, no failed checks), 2 parse or
input-validation error, 3 evaluation-point hypothesis violation (the
message names the violated hypothesis), 4 file I/O error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import InvalidSubgradientError, UnsupportedPointError
from .extreal import ExtReal
from .oracle import QuotientProbe, numeric_second_subderivative
from .spectral import (
    critical_cone_member,
    lifted,
    prox_directional_derivative,
    second_semiderivative,
    spectral_prox,
    spectral_second_subderivative,
    spectral_subderivative,
    spectral_subgradient,
    subderivative_gap,
)
from .symfun import (
    CONE_RTOL,
    RI_SLACK,
    SUBGRADIENT_TOL,
    json_int,
    spec_from_json,
    spec_to_json,
)
from .symmat import FAN_TOL, SymMatrix, eig
from .verify import all_passed, run_all

ASYMMETRY_WARN = 1e-10
DEFINITIONAL_CONE_TOL = 1e-7

_COMMANDS = ("REPORT", "SUBDERIV", "SSUB", "PROX", "CRITCONE", "SEMIDERIV", "VERIFY")


class CliInputError(ValueError):
    """Bad command-line input (maps to exit code 2)."""


def _has_bool(data) -> bool:
    """Whether parsed JSON holds a boolean where numbers belong (numpy
    would read true and false as 1.0 and 0.0)."""
    if isinstance(data, list):
        return any(_has_bool(e) for e in data)
    return isinstance(data, bool)


@dataclass(frozen=True)
class LoadedMatrix:
    raw: list  # row-major entries exactly as parsed, for input echo
    matrix: SymMatrix


def _load_matrix(path: str) -> LoadedMatrix:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "entries" not in data:
            raise CliInputError(f"{path}: matrix JSON must carry an 'entries' field")
        if _has_bool(data["entries"]):
            raise CliInputError(f"{path}: matrix entries must be numbers, not booleans")
        try:
            entries = np.asarray(data["entries"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise CliInputError(f"{path}: matrix entries must be numbers: {exc}") from exc
        if "n" in data:
            n = json_int(data["n"], f"{path}: 'n'")
            if entries.size != n * n:
                raise CliInputError(
                    f"{path}: expected {n * n} entries for n={n}, got {entries.size}"
                )
            entries = entries.reshape(n, n)
        elif entries.ndim != 2:
            raise CliInputError(f"{path}: matrix JSON without 'n' must nest its rows")
        raw = entries.ravel().tolist()
    elif ext == ".csv":
        # an empty file is a warning to numpy; here it is a parse error
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                entries = np.loadtxt(path, delimiter=",", ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise CliInputError(f"{path}: failed to parse CSV matrix: {exc}") from exc
        raw = entries.ravel().tolist()
    else:
        raise CliInputError(
            f"{path}: unknown matrix format {ext!r} (expected .json or .csv)"
        )
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
        raise CliInputError(f"{path}: matrix must be square and nonempty, got {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise CliInputError(f"{path}: matrix entries must be finite")
    asym = float(np.max(np.abs(entries - entries.T)))
    if asym > ASYMMETRY_WARN:
        print(
            f"warning: {path} has asymmetry {asym:.3e} > {ASYMMETRY_WARN:.0e}; "
            "symmetrizing as (A + A^T)/2",
            file=sys.stderr,
        )
    return LoadedMatrix(raw=raw, matrix=SymMatrix(entries))


def _parse_subgradient(text: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"--subgradient must be a JSON array: {exc}") from exc
    if _has_bool(data):
        raise CliInputError("--subgradient must hold numbers, not booleans")
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"--subgradient must hold numbers: {exc}") from exc
    if arr.ndim != 1:
        raise CliInputError("--subgradient must be a flat JSON array")
    return arr


def _parse_t_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise CliInputError(f"--probe-t-grid must be comma-separated floats: {exc}") from exc
    if not grid:
        raise CliInputError("--probe-t-grid is empty")
    return grid


def _jsonable(value):
    if isinstance(value, ExtReal):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def emit_quotient_trace(f, x, v, w, probe: QuotientProbe, path: str) -> None:
    """Write the per-level quotient trace as CSV (t, min_quotient,
    at_w_quotient); infinite quotients are written as +inf."""
    res = numeric_second_subderivative(f, x, v, w, probe)

    def cell(e: ExtReal) -> str:
        return repr(e.value) if e.is_finite else "+inf"

    lines = ["t,min_quotient,at_w_quotient"]
    for lv in res.levels:
        lines.append(f"{lv.t!r},{cell(lv.minimum)},{cell(lv.at_w)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _tolerances() -> dict:
    return {
        "subgradient_membership": SUBGRADIENT_TOL,
        "cone_residual": CONE_RTOL,
        "fan_gap": FAN_TOL,
        "definitional_cone": DEFINITIONAL_CONE_TOL,
        "relative_interior_slack": RI_SLACK,
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="specvar",
        description="First- and second-order calculus of spectral functions of "
        "symmetric matrices, with brute-force cross-checks.",
    )
    p.add_argument("--command", required=True, choices=_COMMANDS)
    p.add_argument("--matrix", help="path to the base matrix (.json or .csv)")
    p.add_argument("--theta", help='penalty JSON, e.g. {"name":"order_stat","i":1}')
    p.add_argument("--direction", help="path to the direction matrix (.json or .csv)")
    p.add_argument("--subgradient", help="JSON array of subgradient weights")
    p.add_argument("--gamma", type=float, help="proximal parameter (PROX only)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed; falls back to SPECVAR_SEED, then 0")
    p.add_argument("--probe-t-grid", help="comma-separated quotient grid, e.g. 1e-2,1e-3,1e-4")
    p.add_argument("--probe-samples", type=int, help="samples per quotient level")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--trace-csv", help="also write the quotient trace CSV here (REPORT/SSUB)")
    return p


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return int(arg_seed)
    env = os.environ.get("SPECVAR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliInputError(f"SPECVAR_SEED must be an integer, got {env!r}") from exc
    return 0


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise CliInputError(
            f"command {args.command} requires {', '.join('--' + n for n in missing)}"
        )


def run(args: argparse.Namespace) -> tuple[dict, int]:
    """Execute a parsed job; returns (report document, exit code)."""
    seed = _resolve_seed(args.seed)
    doc: dict = {
        "version": __version__,
        "command": args.command,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "inputs": {},
        "tolerances": _tolerances(),
    }
    inputs = doc["inputs"]

    if args.command == "VERIFY":
        results = run_all(seed)
        doc["outputs"] = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
        }
        return doc, 0 if all_passed(results) else 1

    _require(args, ["matrix", "theta"])
    loaded = _load_matrix(args.matrix)
    theta = spec_from_json(args.theta)
    inputs["matrix"] = {"n": loaded.matrix.n, "entries": loaded.raw}
    inputs["theta"] = spec_to_json(theta)
    inputs["asymmetry"] = loaded.matrix.asymmetry

    es = eig(loaded.matrix)
    doc["eigen"] = {
        "lambda": es.lam.tolist(),
        "blocks": [[b.start, b.stop] for b in es.blocks],
        "mu": es.mu.tolist(),
        "cluster_tol": es.cluster_tol,
        "ambiguous": es.ambiguous,
    }

    direction = None
    if args.direction is not None:
        dloaded = _load_matrix(args.direction)
        if dloaded.matrix.n != loaded.matrix.n:
            raise CliInputError("direction and matrix dimensions differ")
        inputs["direction"] = {"n": dloaded.matrix.n, "entries": dloaded.raw}
        direction = dloaded.matrix.entries

    ygiven = None
    if args.subgradient is not None:
        ygiven = _parse_subgradient(args.subgradient)
        inputs["subgradient"] = ygiven.tolist()

    if args.gamma is not None:
        inputs["gamma"] = float(args.gamma)

    probe_grid = _parse_t_grid(args.probe_t_grid) if args.probe_t_grid else None
    if probe_grid is not None or args.probe_samples is not None:
        probe = QuotientProbe(
            t_grid=probe_grid or QuotientProbe().t_grid,
            samples=QuotientProbe().samples if args.probe_samples is None else args.probe_samples,
            seed=seed,
        )
    else:
        probe = QuotientProbe(seed=seed)
    inputs["probe"] = {
        "t_grid": list(probe.t_grid),
        "radius": probe.radius,
        "samples": probe.samples,
        "seed": probe.seed,
    }

    command = args.command
    if command in ("REPORT", "SSUB"):
        _require(args, ["direction"])
        triple = spectral_subgradient(theta, es, ygiven)
        report = spectral_second_subderivative(theta, es, triple, direction, probe=probe)
        doc["outputs"] = {
            "value": report.value,
            "y": report.y.tolist(),
            "v": report.v.tolist(),
            "eig_dir": report.eig_dir.tolist(),
            "dg": report.dg,
            "pairing": report.pairing,
            "fan_gaps": report.fan_gaps.tolist(),
            "in_critical_cone": report.in_critical_cone,
            "theta_d2": report.theta_d2.to_json(),
            "curvature_correction": report.curvature_correction,
            "d2": report.d2.to_json(),
            "oracle_d2": None if report.oracle_d2 is None else report.oracle_d2.to_json(),
            "oracle_gap": report.oracle_gap,
        }
        if args.trace_csv:
            emit_quotient_trace(
                lifted(theta),
                es.matrix.entries,
                triple.matrix.entries,
                direction,
                probe,
                args.trace_csv,
            )
    elif command == "SUBDERIV":
        _require(args, ["direction"])
        doc["outputs"] = {"dg": spectral_subderivative(theta, es, direction)}
    elif command == "CRITCONE":
        _require(args, ["direction"])
        triple = spectral_subgradient(theta, es, ygiven)
        gap = subderivative_gap(theta, es, triple, direction)
        doc["outputs"] = {
            "y": triple.y.tolist(),
            "in_critical_cone": critical_cone_member(theta, es, triple, direction),
            "definitional_gap": gap,
            "definitional_member": bool(abs(gap) <= DEFINITIONAL_CONE_TOL),
        }
    elif command == "SEMIDERIV":
        _require(args, ["direction"])
        doc["outputs"] = {
            "second_semiderivative": second_semiderivative(theta, es, direction)
        }
    elif command == "PROX":
        _require(args, ["gamma"])
        res = spectral_prox(theta, float(args.gamma), es)
        doc["outputs"] = {
            "prox_entries": res.matrix.entries.ravel().tolist(),
            "prox_eigenvalues": res.eigenvalues.tolist(),
            "closed_form": res.closed_form,
        }
        if direction is not None:
            dres = prox_directional_derivative(theta, float(args.gamma), es.matrix, direction)
            doc["outputs"]["directional_derivative"] = dres.derivative.ravel().tolist()
            doc["outputs"]["directional_converged"] = dres.converged
    else:  # pragma: no cover - argparse restricts choices
        raise CliInputError(f"unknown command {command!r}")
    return doc, 0


def _finalize(doc: dict) -> dict:
    doc = _jsonable(doc)
    hashable = {k: v for k, v in doc.items() if k != "timestamp"}
    payload = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
    doc["determinism_hash"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return doc


def _join_gamma(argv: list[str]) -> list[str]:
    """argv with each ``--gamma VALUE`` pair written as ``--gamma=VALUE``.
    argparse takes a separate value such as -inf, -nan or -1e-3 for an
    option and refuses it, so the package's own check would never see it."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--gamma":
            out[-1] = f"--gamma={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_gamma(sys.argv[1:] if argv is None else argv))
    try:
        doc, code = run(args)
    except (CliInputError, InvalidSubgradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedPointError as exc:
        print(f"unsupported point: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = _finalize(doc)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 4
    else:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
