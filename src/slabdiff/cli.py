"""Command-line interface.

Subcommands:
    run CONFIG       execute a scenario config file
    figure {1,2,3,4} execute a built-in preset scenario
    coeffs CONFIG    print the cosine-series coefficients as CSV
    validate CONFIG  parse and validate a config file

--out-dir, --terms and --eps override the config; the environment variable
DIFFUSION_OUT_DIR provides the default output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ScenarioParseError, ScenarioValidationError, SlabDiffError
from .profiles import compute_coefficients
from .scenario import Scenario, override, parse_scenario, preset, scenario_hash


def _add_override_args(parser: argparse.ArgumentParser, with_out_dir: bool = True):
    if with_out_dir:
        parser.add_argument("--out-dir", default=None, help="output directory")
    parser.add_argument("--terms", type=int, default=None, help="series truncation override")
    parser.add_argument("--eps", type=float, default=None, help="relaxation ratio override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabdiff",
        description=(
            "Parabolic, telegraph and WKB-type solutions of slab diffusion "
            "with reflecting walls"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("config", type=Path)
    _add_override_args(p_run)

    p_fig = sub.add_parser("figure", help="run a built-in preset")
    p_fig.add_argument("number", choices=["1", "2", "3", "4"])
    _add_override_args(p_fig)

    p_coeffs = sub.add_parser("coeffs", help="print series coefficients as CSV")
    p_coeffs.add_argument("config", type=Path)
    _add_override_args(p_coeffs, with_out_dir=False)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config", type=Path)

    return parser


def _load_config(path: Path) -> Scenario:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            s = _load_config(args.config)
            print(f"OK: scenario {s.name!r} (hash {scenario_hash(s)})")
            return 0

        if args.command == "coeffs":
            s = override(_load_config(args.config), args.terms, args.eps)
            coeffs = compute_coefficients(s.profile, s.truncation)
            lines = [
                f"# profile: {coeffs.profile_tag}",
                f"# truncation: {coeffs.truncation}",
                f"# tail: {coeffs.tail!r}",
                "m,k",
                f"0,{coeffs.mean!r}",
            ]
            lines += [f"{m},{k!r}" for m, k in enumerate(coeffs.modes.tolist(), start=1)]
            sys.stdout.write("\n".join(lines) + "\n")
            return 0

        if args.command == "figure":
            s = preset(f"figure{args.number}")
        else:
            s = _load_config(args.config)
        s = override(s, args.terms, args.eps)
        from .runner import run_scenario  # only run and figure load the solvers

        written = run_scenario(s, args.out_dir)
        for path in written:
            print(path)
        return 0

    except (ScenarioParseError, ScenarioValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SlabDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
