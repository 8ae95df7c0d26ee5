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
import re
import sys

from .errors import InputError, NonCrepantError, NotAdjacentError, OnWallError
from .examples import CatalogEntry, catalog, get_example
from .exactalg import parse_fraction
from .gitdata import GITData, anticones, minimal_anticones, validate
from .localization import EquivClass, euler_characteristic, fixed_point_list, hrr_check
from .wallcrossing import eta_invariants, extend, make_wall_crossing, partition_M
from .windows import Window, fm_euler_check, in_window, kn_strata, seven_loci, window_lift, window_weights


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
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError("cannot read class file: %s" % exc) from exc
        except json.JSONDecodeError as exc:
            raise InputError("invalid class JSON: %s" % exc) from exc
        return EquivClass.from_json_list(data.r, data.m, obj)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("class spec must be O(a), inline JSON, or @file: %s" % exc) from exc
    return EquivClass.from_json_list(data.r, data.m, obj)


def _load_data(args) -> CatalogEntry:
    """The data of --example, with its subtorus and default omegas, or of
    --data, with none."""
    if args.example:
        return get_example(args.example)
    if args.data:
        try:
            with open(args.data, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError("cannot read data file: %s" % exc) from exc
        return CatalogEntry(args.data, "", GITData.from_json(text))
    raise InputError("give --data FILE or --example NAME")


def _emit(report, as_json: bool, text=None):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text if text is not None else report)


def run(args) -> int:
    """Dispatch one parsed command line; returns the process exit code."""
    if args.command == "catalog":
        entries = catalog()
        if args.json:
            _emit([e.to_json_dict() for e in entries], True)
        else:
            for e in entries:
                print("%-12s %s" % (e.name, e.description))
        return 0

    entry = _load_data(args)
    data = entry.data
    if args.command == "validate":
        report = validate(data)
        _emit(report.to_json_dict(), args.json, "pass" if report.passed else "FAIL: " + "; ".join(report.failures))
        return 0 if report.passed else 1

    if args.command == "anticones":
        fam = anticones(data)
        locus = minimal_anticones(data)
        payload = {
            "anticones": [sorted(a) for a in sorted(fam, key=lambda s: (len(s), tuple(sorted(s))))],
            "minimal": locus.to_json_list(),
        }
        _emit(payload, args.json, "anticones: %d\nminimal: %s" % (len(fam), locus))
        return 0

    if args.command == "fixed-points":
        rows = [
            {
                "delta": list(fp.delta),
                "group_order": fp.group_order,
                "tangent_weights": {str(j): [str(x) for x in w] for j, w in fp.tangent_weights.items()},
            }
            for fp in fixed_point_list(data)
        ]
        _emit(rows, args.json, "\n".join("delta={%s} |G|=%d" % (",".join(map(str, r["delta"])), r["group_order"]) for r in rows))
        return 0

    if args.command in ("euler", "hrr-check"):
        if args.command == "hrr-check":
            if args.order < 0:
                raise InputError("the expansion order must be nonnegative, got %d" % args.order)
        if args.class_spec is not None:
            E = parse_class(data, args.class_spec)
        else:
            E = EquivClass.line(data.r, data.m, (0,) * data.r)
        if args.command == "euler":
            chi = euler_characteristic(data, E, subtorus=entry.subtorus)
            payload = {"character": str(chi), "rational_after_clearing": chi.cleared_numerator().all_rational()}
            _emit(payload, args.json, str(chi))
            return 0
        report = hrr_check(data, E, args.order, subtorus=entry.subtorus)
        _emit(report.to_json_dict(), args.json, str(report))
        return 0 if report.equal else 1

    # wallcross, windows and fm-check: every argument is parsed before the
    # omegas are required, so a malformed argument is the error reported
    omega_plus = _parse_vector(args.omega_plus) if args.omega_plus else entry.omega_plus
    omega_minus = _parse_vector(args.omega_minus) if args.omega_minus else entry.omega_minus
    lift = parse_class(data, args.lift) if getattr(args, "lift", None) else None
    fm_pair = None
    if getattr(args, "check_fm", None):
        fm_pair = tuple(parse_class(data, t) for t in args.check_fm)
    if args.command == "fm-check":
        fm_pair = (parse_class(data, args.L), parse_class(data, args.M))
    if omega_plus is None or omega_minus is None:
        raise InputError("give --omega-plus and --omega-minus (or use an example with a wall)")
    wc = make_wall_crossing(data.with_omega(omega_plus), omega_plus, omega_minus)
    if args.command == "wallcross":
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
        _emit(payload, args.json, text)
        return 0

    stratum_plus, stratum_minus = kn_strata(wc)
    base = args.window_base
    if lift is not None:
        lifted = window_lift(wc, lift, base=base)
        payload = {
            "lift": lifted.to_json_list(),
            "weights": window_weights(lifted, stratum_plus),
            "in_window": in_window(lifted, Window(stratum_plus, base)),
        }
        _emit(payload, args.json, "lift: %s\nweights: %s" % (lifted, payload["weights"]))
        return 0

    if fm_pair is None:
        M_plus, M_zero, M_minus = partition_M(wc)
        payload = {
            "eta": [stratum_plus.eta, stratum_minus.eta],
            "window": [base, base + stratum_plus.eta],
            "M_plus": sorted(M_plus),
            "M_zero": sorted(M_zero),
            "M_minus": sorted(M_minus),
        }
        _emit(payload, args.json, "eta = %s, window = [%d, %d)" % (payload["eta"], *payload["window"]))
        return 0

    report = fm_euler_check(wc, *fm_pair, window_base=base)
    _emit(report.to_json_dict(), args.json, str(report))
    return 0 if report.equal else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torickit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_class=False):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--data", help="path to GIT data JSON")
        source.add_argument("--example", help="built-in example name")
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
    p.add_argument("--order", type=int, default=6)
    omega_help = "stability condition, comma-separated rationals; one that starts with '-' follows '=', as --omega-minus=-1,1"
    for name in ("wallcross", "windows", "fm-check"):
        p = sub.add_parser(name, help="wall-crossing / window operations")
        add_common(p)
        p.add_argument("--omega-plus", help=omega_help)
        p.add_argument("--omega-minus", help=omega_help)
        if name != "wallcross":
            p.add_argument("--window-base", type=int, default=0)
        if name == "windows":
            action = p.add_mutually_exclusive_group()
            action.add_argument("--lift", help="class to lift into the window")
            action.add_argument("--check-fm", nargs=2, metavar=("L", "M"), help="compare pull-push with the window transport")
        if name == "fm-check":
            p.add_argument("--L", required=True, help="class on the minus side")
            p.add_argument("--M", required=True, help="class on the plus side")
    p = sub.add_parser("catalog", help="list built-in examples")
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
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
