"""wrlat: construct fields, decompose primes, scan ideals for
well-roundedness, run the certified cross-checks, and hunt for
counterexamples to the odd-discriminant norm-divisibility conjecture.

Exit codes: 0 success, 1 a scan found a failure or counterexample, or a
decomposition or cross-check failed inside the library, 2 bad input.
"""

import argparse
import csv
import io
import json
import multiprocessing
import sys
from fractions import Fraction

from .cubic_field import CubicField
from .quartic_field import QuarticField, quartic_param_box
from .ideal_lattice import (decompose_prime, enumerate_primitive_ideals, sigma_orbits,
                            stable_subspace_primes)
from .lattice_reduce import wr_report
from .numtheory import enumerate_conductors, is_prime
from .wr_certify import crosscheck_field, cubic_cases, quartic_cases

CSV_COLUMNS = ["field_id", "ideal_norm", "hnf", "minimum", "wr",
               "strongly_wr", "orthogonal", "predicate", "divides_disc"]


# -- field selectors -----------------------------------------------------------

def parse_field_id(fid: str):
    kind, _, rest = fid.partition(":")
    if kind == "cubic":
        return CubicField(int(rest))
    if kind == "quartic":
        a, b, c, d = (int(x) for x in rest.split(","))
        return QuarticField(a, b, c, d)
    raise ValueError("unknown field id %r" % fid)


def expand_field_spec(spec: str) -> list:
    """Semicolon-separated list of selectors:

    cubic:M, cubic:LO..HI (all valid conductors in range),
    quartic:a,b,c,d, quartic:box:AMAX,DMAX[,odd]
    """
    ids = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, rest = part.partition(":")
        if kind == "cubic" and ".." in rest:
            lo, hi = (int(x) for x in rest.split(".."))
            ids += ["cubic:%d" % m for m in enumerate_conductors(hi) if m >= lo]
        elif kind == "quartic" and rest.startswith("box:"):
            args = rest[4:].split(",")
            odd_only = len(args) > 2 and args[2] == "odd"
            ids += ["quartic:%d,%d,%d,%d" % t
                    for t in quartic_param_box(int(args[0]), int(args[1]), odd_only)]
        else:
            ids.append(parse_field_id(part).key)
    return ids


# -- records -------------------------------------------------------------------

def _rational_str(x) -> str:
    fr = Fraction(x)
    return "%d/%d" % (fr.numerator, fr.denominator)


def _predicate_map(field) -> dict:
    cases = cubic_cases(field) if field.n == 3 else quartic_cases(field)
    return {case.ideal.hnf: case.predicted for case in cases}


def scan_field(field, norm_bound: int) -> list:
    """WrRecord dicts for every primitive ideal of `field` of norm <= norm_bound.

    sigma maps each ideal isometrically onto its image, so the lattice is
    reduced once per sigma-orbit, on the orbit's least member, and the
    minimum and the WR flags are copied to the others.  That relies on the
    enumerated list being closed under sigma, which `sigma_orbits` checks.
    """
    field_id = field.key
    predicates = _predicate_map(field)
    n = field.n
    records = []
    for orbit in sigma_orbits(enumerate_primitive_ideals(field, norm_bound)):
        rep = wr_report(orbit[0])
        for ideal in orbit:
            records.append({
                "field_id": field_id,
                "ideal_norm": ideal.norm,
                "hnf": [ideal.hnf[i][j] for i in range(n) for j in range(n)],
                "minimum": _rational_str(rep.minimum),
                "wr": rep.is_wr,
                "strongly_wr": rep.is_strongly_wr,
                "orthogonal": rep.is_orthogonal_minimal_basis,
                "predicate": predicates.get(ideal.hnf),
                "divides_disc": abs(field.disc) % ideal.norm == 0,
            })
    records.sort(key=lambda r: (r["ideal_norm"], r["hnf"]))
    return records


def _scan_worker(args):
    field_id, norm_bound = args
    disc = None
    try:
        field = parse_field_id(field_id)
        disc = field.disc
        return field_id, disc, scan_field(field, norm_bound), None
    except Exception as exc:  # report and let the driver skip the field
        return field_id, disc, [], "%s: %s" % (type(exc).__name__, exc)


def run_scan(field_ids, norm_bound, jobs=1):
    """(records, failures, discs) of a scan of the fields, which must be
    canonical field ids, as `expand_field_spec` gives them; discs maps each
    field id to its discriminant (None if the field could not be built)."""
    work = [(fid, norm_bound) for fid in field_ids]
    if jobs > 1 and len(work) > 1:
        with multiprocessing.Pool(jobs) as pool:
            outputs = pool.map(_scan_worker, work)
    else:
        outputs = [_scan_worker(w) for w in work]
    records, failures, discs = [], [], {}
    for fid, disc, recs, err in outputs:
        discs[fid] = disc
        if err is not None:
            failures.append({"field_id": fid, "error": err})
        records.extend(recs)
    records.sort(key=lambda r: (r["field_id"], r["ideal_norm"], r["hnf"]))
    return records, failures, discs


# -- serialization --------------------------------------------------------------

def emit_json(config: dict, records: list, summary: dict) -> str:
    return json.dumps({"config": config, "records": records, "summary": summary},
                      indent=2, sort_keys=True) + "\n"


def parse_json(text: str):
    data = json.loads(text)
    return data["config"], data["records"], data["summary"]


def emit_csv(records: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            r["field_id"], r["ideal_norm"],
            " ".join(str(x) for x in r["hnf"]), r["minimum"],
            str(r["wr"]).lower(), str(r["strongly_wr"]).lower(),
            str(r["orthogonal"]).lower(),
            "" if r["predicate"] is None else str(r["predicate"]).lower(),
            str(r["divides_disc"]).lower(),
        ])
    return buf.getvalue()


def parse_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS
    out = []
    for row in rows[1:]:
        out.append({
            "field_id": row[0],
            "ideal_norm": int(row[1]),
            "hnf": [int(x) for x in row[2].split()],
            "minimum": row[3],
            "wr": row[4] == "true",
            "strongly_wr": row[5] == "true",
            "orthogonal": row[6] == "true",
            "predicate": None if row[7] == "" else row[7] == "true",
            "divides_disc": row[8] == "true",
        })
    return out


def _write_output(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _poly_str(coeffs) -> str:
    # coeffs ascending: (c0, c1, ..., 1) monic
    n = len(coeffs)
    terms = ["x^%d" % n]
    for k in range(n - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        body = "x^%d" % k if k > 1 else ("x" if k == 1 else "")
        mag = abs(c)
        coef = "" if (mag == 1 and k > 0) else str(mag)
        terms.append(("- " if c < 0 else "+ ") + coef + body)
    return " ".join(terms)


# -- commands ---------------------------------------------------------------------

def cmd_construct(args) -> int:
    if args.family == "cubic":
        field = CubicField(args.m)
        print("field %s" % field.key)
        print("defining polynomial: %s" % _poly_str(field.df))
        print("conductor parameters: a=%d b=%d" % (field.a, field.b))
        print("discriminant: %d" % field.disc)
        print("integral basis: 1, alpha, sigma(alpha)")
    else:
        field = QuarticField(args.a, args.b, args.c, args.d)
        print("field %s" % field.key)
        print("defining polynomial: %s" % _poly_str(field.df))
        print("discriminant: %d" % field.disc)
        print("integral basis case: %s" % field.basis_case)
        print("index of Z[beta]: %d" % field.index)
    return 0


def cmd_decompose(args) -> int:
    # bad input (field id, non-prime p) raises ValueError: exit 2 in main
    field = parse_field_id(args.field)
    p = args.prime
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    # past validation every exception is an internal failure: exit 1
    try:
        dec = decompose_prime(field, p)
        print("%s p=%d shape %s" % (field.key, p, dec.shape))
        for P, e in dec.factors:
            rows = ["[" + " ".join(str(x) for x in row) + "]" for row in P.hnf]
            print("  norm %d exponent %d hnf %s" % (P.norm, e, " ".join(rows)))
        if args.oracle:
            ref = stable_subspace_primes(field, p)
            agrees = ref.factors == dec.factors and ref.shape == dec.shape
            print("oracle agreement: %s" % ("yes" if agrees else "NO"))
            if not agrees:
                return 1
    except Exception as exc:
        print("error: %s p=%d: %s: %s" % (field.key, p, type(exc).__name__, exc),
              file=sys.stderr)
        return 1
    return 0


def _scan_config(args) -> dict:
    return {
        "fields": expand_field_spec(args.fields),
        "norm_bound": args.norm_bound,
        "format": "json" if args.json else ("csv" if args.csv else "text"),
        "out": args.out,
        "jobs": args.jobs,
    }


def cmd_scan(args) -> int:
    config = _scan_config(args)
    records, failures, _ = run_scan(config["fields"], args.norm_bound, args.jobs)
    summary = {
        "fields": len(config["fields"]),
        "records": len(records),
        "wr_records": sum(1 for r in records if r["wr"]),
        "failures": failures,
    }
    if args.json:
        _write_output(emit_json(config, records, summary), args.out)
    elif args.csv:
        _write_output(emit_csv(records), args.out)
    else:
        lines = []
        for r in records:
            lines.append("%-18s norm %-7d min %-10s wr=%-5s strongly=%-5s "
                         "orthogonal=%-5s divides_disc=%s"
                         % (r["field_id"], r["ideal_norm"], r["minimum"],
                            r["wr"], r["strongly_wr"], r["orthogonal"],
                            r["divides_disc"]))
        lines.append("fields=%d records=%d wr=%d failures=%d"
                     % (summary["fields"], summary["records"],
                        summary["wr_records"], len(failures)))
        _write_output("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def cmd_crosscheck(args) -> int:
    # a bad field id raises ValueError: exit 2 in main
    fields = [parse_field_id(fid) for fid in expand_field_spec(args.fields)]
    total = failed = 0
    for field in fields:
        # past validation every exception is an internal failure: exit 1
        try:
            results = crosscheck_field(field)
        except Exception as exc:
            print("error: %s: %s: %s" % (field.key, type(exc).__name__, exc),
                  file=sys.stderr)
            return 1
        for res in results:
            total += 1
            status = "PASS" if res.passed else "FAIL"
            if not res.passed:
                failed += 1
                print("%s %-16s %s  (%s)" % (status, res.case.kind, res.label,
                                             "; ".join(res.reasons)))
            elif args.verbose:
                print("%s %-16s %s" % (status, res.case.kind, res.label))
    print("crosscheck: %d cases, %d failures" % (total, failed))
    return 1 if failed else 0


def cmd_conjecture(args) -> int:
    config = _scan_config(args)
    records, failures, discs = run_scan(config["fields"], args.norm_bound, args.jobs)
    counterexamples = []
    expected_nonconforming = []
    conforming = 0
    odd_disc_fields = {fid for fid, disc in discs.items()
                       if disc is not None and disc % 2 == 1}
    for r in records:
        if not r["wr"]:
            continue
        if r["divides_disc"]:
            conforming += 1
        elif r["field_id"] in odd_disc_fields:
            counterexamples.append(r)
        else:
            expected_nonconforming.append(r)
    summary = {
        "fields": len(config["fields"]),
        "odd_disc_fields": len(odd_disc_fields),
        "wr_conforming": conforming,
        "counterexamples": counterexamples,
        "expected_nonconforming_even_disc": expected_nonconforming,
        "failures": failures,
    }
    if args.json:
        _write_output(emit_json(config, records, summary), args.out)
    else:
        print("conjecture scan: %d fields (%d with odd discriminant), "
              "norm bound %d" % (len(config["fields"]), len(odd_disc_fields),
                                 args.norm_bound))
        print("conforming WR ideals: %d" % conforming)
        for r in expected_nonconforming:
            print("expected non-conforming (even disc): %s norm %d"
                  % (r["field_id"], r["ideal_norm"]))
        for r in counterexamples:
            print("COUNTEREXAMPLE: %s norm %d does not divide the "
                  "discriminant" % (r["field_id"], r["ideal_norm"]))
        if not counterexamples:
            print("no counterexamples")
    return 1 if counterexamples or failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrlat",
        description="well-rounded ideal lattices of cyclic cubic and "
                    "quartic fields, in exact arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    cubic = sub.add_parser("cubic", help="cubic field commands")
    cubic_sub = cubic.add_subparsers(dest="subcommand", required=True)
    ccon = cubic_sub.add_parser("construct", help="build a field from its conductor")
    ccon.add_argument("-m", type=int, required=True)
    ccon.set_defaults(func=cmd_construct, family="cubic")

    quartic = sub.add_parser("quartic", help="quartic field commands")
    quartic_sub = quartic.add_subparsers(dest="subcommand", required=True)
    qcon = quartic_sub.add_parser("construct", help="build a field from (a, b, c, d)")
    for flag in ("-a", "-b", "-c", "-d"):
        qcon.add_argument(flag, type=int, required=True)
    qcon.set_defaults(func=cmd_construct, family="quartic")

    dec = sub.add_parser("decompose", help="prime decomposition in a field")
    dec.add_argument("--field", required=True)
    dec.add_argument("--prime", type=int, required=True)
    dec.add_argument("--oracle", action="store_true",
                     help="also run the stable-subspace oracle and compare")
    dec.set_defaults(func=cmd_decompose)

    def add_scan_args(p, with_bound=True):
        p.add_argument("--fields", required=False)
        if with_bound:
            p.add_argument("--norm-bound", type=int, required=False)
        p.add_argument("--json", action="store_true")
        p.add_argument("--csv", action="store_true")
        p.add_argument("--out")
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--config", help="JSON file with the same keys; flags override")

    scan = sub.add_parser("scan", help="enumerate primitive ideals and test WR")
    add_scan_args(scan)
    scan.set_defaults(func=cmd_scan)

    cross = sub.add_parser("crosscheck", help="closed-form predicates vs enumeration")
    cross.add_argument("--fields", required=False)
    cross.add_argument("--config")
    cross.add_argument("--verbose", action="store_true")
    cross.set_defaults(func=cmd_crosscheck)

    conj = sub.add_parser("conjecture",
                          help="scan for WR ideals whose norm does not divide "
                               "the discriminant")
    add_scan_args(conj)
    conj.set_defaults(func=cmd_conjecture)
    return parser


def _apply_config_file(args):
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    for key in ("fields", "norm_bound", "out", "jobs"):
        if getattr(args, key, None) is None and key in data:
            setattr(args, key, data[key])
    if data.get("format") == "json" and not (args.json or args.csv):
        args.json = True
    if data.get("format") == "csv" and not (args.json or args.csv):
        args.csv = True


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        if getattr(args, "jobs", None) is None:
            args.jobs = 1
        if hasattr(args, "fields") and not args.fields:
            parser.error("--fields is required (flag or config file)")
        if hasattr(args, "norm_bound") and args.norm_bound is None:
            parser.error("--norm-bound is required (flag or config file)")
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
