"""Command-line front end.

One subcommand per top-level operation; exit code 0 on success or a
passing check, 1 when a check fails, 2 on malformed input, which includes
a stability condition on a wall, a pair of conditions not separated by
exactly one wall and a window operation across a non-crepant wall, and 3
when an internal invariant fails.  Reports are human text by default and
JSON with --json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from .errors import InputError, NonCrepantError, NotAdjacentError, OnWallError
from .examples import catalog, get_example
from .exactalg import parse_fraction
from .gitdata import GITData, anticones, minimal_anticones, validate
from .localization import EquivClass, euler_characteristic, fixed_point_list, hrr_check
from .wallcrossing import eta_invariants, extend, make_wall_crossing, partition_M
from .windows import Window, fm_euler_check, in_window, kn_strata, seven_loci, window_lift, window_weights

def default_order() -> int:
    text = os.environ.get("TORICKIT_TRUNCATION", "6")
    try:
        return int(text)
    except ValueError:
        raise InputError("TORICKIT_TRUNCATION must be an integer, got %r" % text) from None


@dataclass
class JobSpec:
    command: str
    data: GITData | None = None
    subtorus: tuple | None = None
    omega_plus: tuple | None = None
    omega_minus: tuple | None = None
    class_spec: EquivClass | None = None
    fm_pair: tuple | None = None
    lift_spec: EquivClass | None = None
    order: int = 6
    window_base: int = 0
    as_json: bool = False


def _parse_vector(text: str):
    try:
        return tuple(parse_fraction(x) for x in text.split(",")) if text.strip() else ()
    except ValueError as exc:
        raise InputError("bad stability condition %r: %s" % (text, exc)) from None


def parse_class(data: GITData, text: str) -> EquivClass:
    """Class specs: O(a) sugar for rank-one data, inline JSON, or @file.json."""
    text = text.strip()
    m = re.fullmatch(r"O\((-?\d+)\)", text)
    if m:
        if data.r != 1:
            raise InputError("O(a) sugar needs rank-1 gauge data; give explicit JSON")
        return EquivClass.line(data.r, data.m, (int(m.group(1)),))
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise InputError("cannot read class file: %s" % exc) from exc
        except json.JSONDecodeError as exc:
            raise InputError("invalid class JSON: %s" % exc) from exc
        return EquivClass.from_json_list(data.r, data.m, obj)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("class spec must be O(a), inline JSON, or @file: %s" % exc) from exc
    return EquivClass.from_json_list(data.r, data.m, obj)


def _load_data(args) -> tuple[GITData, tuple | None, CatalogDefaults]:
    defaults = CatalogDefaults()
    if getattr(args, "example", None):
        entry = get_example(args.example)
        defaults.omega_plus = entry.omega_plus
        defaults.omega_minus = entry.omega_minus
        return entry.data, entry.subtorus, defaults
    if getattr(args, "data", None):
        try:
            with open(args.data, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError("cannot read data file: %s" % exc) from exc
        return GITData.from_json(text), None, defaults
    raise InputError("give --data FILE or --example NAME")


@dataclass
class CatalogDefaults:
    omega_plus: tuple | None = None
    omega_minus: tuple | None = None


def _emit(report, as_json: bool, text=None):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text if text is not None else report)


def run(job: JobSpec) -> int:
    """Dispatch one job; returns the process exit code."""
    if job.command == "catalog":
        entries = catalog()
        if job.as_json:
            _emit([e.to_json_dict() for e in entries], True)
        else:
            for e in entries:
                print("%-12s %s" % (e.name, e.description))
        return 0

    data = job.data
    if job.command == "validate":
        report = validate(data)
        _emit(report.to_json_dict(), job.as_json, "pass" if report.passed else "FAIL: " + "; ".join(report.failures))
        return 0 if report.passed else 1

    if job.command == "anticones":
        fam = anticones(data)
        locus = minimal_anticones(data)
        payload = {
            "anticones": [sorted(a) for a in sorted(fam, key=lambda s: (len(s), tuple(sorted(s))))],
            "minimal": locus.to_json_list(),
        }
        _emit(payload, job.as_json, "anticones: %d\nminimal: %s" % (len(fam), locus))
        return 0

    if job.command == "fixed-points":
        rows = [
            {
                "delta": list(fp.delta),
                "group_order": fp.group_order,
                "tangent_weights": {str(j): [str(x) for x in w] for j, w in fp.tangent_weights.items()},
            }
            for fp in fixed_point_list(data)
        ]
        _emit(rows, job.as_json, "\n".join("delta={%s} |G|=%d" % (",".join(map(str, r["delta"])), r["group_order"]) for r in rows))
        return 0

    if job.command == "euler":
        chi = euler_characteristic(data, job.class_spec, subtorus=job.subtorus)
        payload = {"character": str(chi), "rational_after_clearing": chi.cleared_numerator().all_rational()}
        _emit(payload, job.as_json, str(chi))
        return 0

    if job.command == "hrr-check":
        report = hrr_check(data, job.class_spec, job.order, subtorus=job.subtorus)
        payload = report.to_json_dict()
        _emit(payload, job.as_json, str(report))
        return 0 if report.equal else 1

    if job.command in ("wallcross", "windows", "fm-check"):
        if job.omega_plus is None or job.omega_minus is None:
            raise InputError("give --omega-plus and --omega-minus (or use an example with a wall)")
        base = data.with_omega(job.omega_plus)
        wc = make_wall_crossing(base, job.omega_plus, job.omega_minus)
        if job.command == "wallcross":
            ext = extend(wc)
            loci = seven_loci(ext)
            rows = [list(r) for r in zip(*ext.data.weights)]
            payload = {
                **wc.to_json_dict(),
                "extended_weights": [list(w) for w in ext.data.weights],
                "extended_weight_rows": rows,
                "chambers": ext.to_json_dict()["chambers"],
                "loci": loci.to_json_dict(),
            }
            text = (
                "wall normal e = (%s), crepant = %s, eta = %s\n"
                "extended weight matrix rows: %s\nresolution locus: %s"
                % (
                    ",".join(map(str, wc.e)),
                    wc.crepant,
                    eta_invariants(wc),
                    " / ".join(str(tuple(r)) for r in rows),
                    loci.v_tilde,
                )
            )
            _emit(payload, job.as_json, text)
            return 0

        stratum_plus, stratum_minus = kn_strata(wc)
        if job.command == "windows" and job.fm_pair is None and job.lift_spec is None:
            payload = {
                "eta": [stratum_plus.eta, stratum_minus.eta],
                "window": [job.window_base, job.window_base + stratum_plus.eta],
                "M_plus": sorted(partition_M(wc)[0]),
                "M_zero": sorted(partition_M(wc)[1]),
                "M_minus": sorted(partition_M(wc)[2]),
            }
            _emit(payload, job.as_json, "eta = %s, window = [%d, %d)" % (payload["eta"], *payload["window"]))
            return 0

        if job.lift_spec is not None:
            lifted = window_lift(wc, job.lift_spec, base=job.window_base)
            window = Window(stratum_plus, job.window_base)
            payload = {
                "lift": lifted.to_json_list(),
                "weights": window_weights(lifted, stratum_plus),
                "in_window": in_window(lifted, window),
            }
            _emit(payload, job.as_json, "lift: %s\nweights: %s" % (lifted, payload["weights"]))
            return 0

        L, M = job.fm_pair
        report = fm_euler_check(wc, L, M, window_base=job.window_base)
        _emit(report.to_json_dict(), job.as_json, str(report))
        return 0 if report.equal else 1

    raise InputError("unknown command '%s'" % job.command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torickit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_class=False):
        p.add_argument("--data", help="path to GIT data JSON")
        p.add_argument("--example", help="built-in example name")
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        if need_class:
            p.add_argument("--class", dest="class_spec", default=None, help='class spec: O(a), JSON, or @file')

    add_common(sub.add_parser("validate", help="check the admissibility conditions"))
    add_common(sub.add_parser("anticones", help="list anticones and the semistable locus"))
    add_common(sub.add_parser("fixed-points", help="torus-fixed points with isotropy data"))
    p = sub.add_parser("euler", help="equivariant Euler characteristic by localization")
    add_common(p, need_class=True)
    p = sub.add_parser("hrr-check", help="compare the expansion with the index formula")
    add_common(p, need_class=True)
    p.add_argument("--order", type=int, default=None)
    for name in ("wallcross", "windows", "fm-check"):
        p = sub.add_parser(name, help="wall-crossing / window operations")
        add_common(p)
        p.add_argument("--omega-plus", help="stability condition, comma-separated rationals")
        p.add_argument("--omega-minus", help="stability condition, comma-separated rationals")
        p.add_argument("--window-base", type=int, default=0)
        if name == "windows":
            p.add_argument("--lift", help="class to lift into the window")
            p.add_argument("--check-fm", nargs=2, metavar=("L", "M"), help="compare pull-push with the window transport")
        if name == "fm-check":
            p.add_argument("--L", required=True, help="class on the minus side")
            p.add_argument("--M", required=True, help="class on the plus side")
    p = sub.add_parser("catalog", help="list built-in examples")
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


def job_from_args(args) -> JobSpec:
    job = JobSpec(command=args.command, as_json=getattr(args, "json", False))
    if args.command == "catalog":
        return job
    data, subtorus, defaults = _load_data(args)
    job.data = data
    job.subtorus = subtorus
    if hasattr(args, "order"):
        job.order = args.order if args.order is not None else default_order()
        if job.order < 0:
            raise InputError("the expansion order must be nonnegative, got %d" % job.order)
    if hasattr(args, "window_base"):
        job.window_base = args.window_base
    if getattr(args, "class_spec", None) is not None:
        job.class_spec = parse_class(data, args.class_spec)
    elif args.command in ("euler", "hrr-check"):
        job.class_spec = EquivClass.line(data.r, data.m, (0,) * data.r)
    if args.command in ("wallcross", "windows", "fm-check"):
        op = getattr(args, "omega_plus", None)
        om = getattr(args, "omega_minus", None)
        job.omega_plus = _parse_vector(op) if op else defaults.omega_plus
        job.omega_minus = _parse_vector(om) if om else defaults.omega_minus
        if getattr(args, "lift", None):
            job.lift_spec = parse_class(data, args.lift)
        if getattr(args, "check_fm", None):
            job.fm_pair = tuple(parse_class(data, t) for t in args.check_fm)
        if args.command == "fm-check":
            job.fm_pair = (parse_class(data, args.L), parse_class(data, args.M))
    return job


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = job_from_args(args)
        return run(job)
    except (InputError, OnWallError, NotAdjacentError, NonCrepantError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
