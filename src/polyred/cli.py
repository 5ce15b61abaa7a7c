"""Command line driver.

Exit codes tell scripts apart what happened: 0 success or valid, 1 a
failed check (invalid certificate, degenerate input, broken pairing),
2 a usage problem (bad flags, unreadable or unparseable input), and 3
an exhausted budget.  Refutation and resource exhaustion are different
answers and must stay distinguishable.
"""

import argparse
import json
import os
import sys

from .attrs import mfs_sample
from .certs import fiber_transport_check, verify_certificate
from .examples import builtin_example, builtin_ids, corpus
from .gz import pair_down, pair_up, verify_pairing
from .maps import (Budget, BudgetExceeded, DEFAULT_BUDGET, GenericityError,
                   classify, is_druzkowski, is_yagzhev)
from .reduce import lower_degree, meng_symmetrize, segre_step, to_yagzhev
from .textio import (ParseError, attribute_report_to_json,
                     cert_report_to_json, certificate_from_json,
                     certificate_to_json, classification_to_json,
                     cubic_linear_text, default_var_names, matrix_from_json,
                     pairing_to_json, parse_map, poly_text,
                     polymap_to_document, print_map)


class UsageError(Exception):
    pass


# -- shared plumbing ---------------------------------------------------------


def _load_map(ref: str):
    """The map in a map file at the path ref, or of the shipped example
    with the id ref."""
    if os.path.exists(ref):
        try:
            with open(ref, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read '{ref}': {e.strerror}")
        return parse_map(text).to_polymap()
    if os.sep in ref or ref.endswith(".map") or ref.endswith(".txt"):
        raise UsageError(f"no such file: '{ref}'")
    try:
        example = builtin_example(ref)
    except ValueError:
        raise UsageError(
            f"'{ref}' is neither a file nor a built-in example id "
            "(see `polyred examples list`)")
    return example.document.to_polymap()


def _count(minimum: int):
    """argparse type: an integer count of at least `minimum`."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid count: {text!r}")
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n
    return parse


def _add_exact_threshold(p) -> None:
    p.add_argument("--exact-threshold", type=_count(0),
                   default=DEFAULT_BUDGET.max_exact_det_dim, metavar="N",
                   help="largest dimension for symbolic Jacobian determinants")


def _exact_budget(args) -> Budget:
    return Budget(max_exact_det_dim=args.exact_threshold)


def _print_json(data) -> None:
    """data as sorted, indented JSON and a newline, streamed to stdout
    rather than built as one string first."""
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _table(pairs) -> None:
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k:<{width}}  {v}")


def _yesno(value) -> str:
    if value is None:
        return "unknown"
    return "yes" if value else "no"


def _write_text(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(data, path) -> None:
    """data as indented JSON and a newline, streamed to the file rather
    than built as one string first."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _write_outputs(args, doc, cert) -> None:
    """A command's map document to --out (or stdout), then its
    certificate to --cert when one is asked for."""
    _write_text(print_map(doc), args.out)
    if args.cert is not None:
        _write_json(certificate_to_json(cert), args.cert)


# -- commands ----------------------------------------------------------------


def _cmd_analyze(args) -> int:
    f = _load_map(args.map)
    cls = classify(f, budget=_exact_budget(args), seed=args.seed,
                   samples=args.samples)
    data = classification_to_json(cls)
    data["yagzhev"] = is_yagzhev(f)
    data["druzkowski"] = is_druzkowski(f)[0]
    if args.json:
        _print_json(data)
        return 0
    _table([
        ("dimension", cls.dim),
        ("degree", cls.degree),
        ("jacobian degree bound", cls.jacobian_degree_bound),
        ("determinant mode", cls.mode),
        ("nondegenerate", _yesno(cls.nondegenerate)),
        ("keller", _yesno(cls.keller)),
        ("nonsingular (sampled)", _yesno(cls.nonsingular_sampled)),
        ("samples", cls.samples),
        ("seed", cls.seed),
        ("cubic homogeneous form", _yesno(data["yagzhev"])),
        ("cubic linear form", _yesno(data["druzkowski"])),
    ])
    for note in cls.notes:
        print(f"note: {note}")
    return 0


def _cmd_reduce(args) -> int:
    f = _load_map(args.map)
    budget = Budget(max_dim=args.budget_dim, max_ms=args.budget_ms)
    if args.to == "cubic":
        g, cert = lower_degree(f, budget=budget)
        stages = [("input", f.n_in), ("cubic", g.n_in)]
    else:
        g, trace = to_yagzhev(f, seed=args.seed, budget=budget)
        cert = trace.certificate
        stages = list(zip(trace.stage_names, trace.stage_dims))
    _write_outputs(args, polymap_to_document(g, metadata={"stage": args.to}), cert)
    # keep the summary off stdout when the document itself goes there
    log = sys.stdout if args.out is not None else sys.stderr
    print("stages: " + " -> ".join(f"{name} ({dim})" for name, dim in stages),
          file=log)
    print(f"output degree {g.degree()}, certificate with {len(cert.moves)} "
          f"moves", file=log)
    return 0


def _cmd_pairing(args, pairing) -> int:
    rep = verify_pairing(pairing)
    if args.json:
        data = pairing_to_json(pairing)
        data["axioms_ok"] = rep.ok
        data["issues"] = list(rep.issues)
        _print_json(data)
    else:
        _table([
            ("cubic homogeneous dimension", pairing.G.n_in),
            ("cubic linear dimension", pairing.F.n_in),
            ("axioms", "ok" if rep.ok else "FAILED"),
        ])
        for issue in rep.issues:
            print(f"issue: {issue}")
        print()
        sys.stdout.write(cubic_linear_text(pairing.F))
    return 0 if rep.ok else 1


def _read_json(path: str):
    """The JSON value in the file at path.  A file that cannot be read, is
    not UTF-8 JSON, nests deeper than the decoder's recursion limit or
    holds an integer longer than int() reads is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read '{path}': {e.strerror}")
    except (ValueError, RecursionError) as e:
        raise UsageError(f"'{path}' is not JSON: {e}")


def _cmd_pair_up(args) -> int:
    f = _load_map(args.map)
    return _cmd_pairing(args, pair_up(f))


def _cmd_pair_down(args) -> int:
    f = _load_map(args.map)
    rows = _read_json(args.matrix)
    try:
        a = matrix_from_json(rows)
    except ValueError:
        raise UsageError(f"'{args.matrix}' is not a matrix of rationals")
    return _cmd_pairing(args, pair_down(f, a))


def _cmd_symmetrize(args) -> int:
    f = _load_map(args.map)
    g, cert, potential = meng_symmetrize(f, budget=_exact_budget(args))
    names = default_var_names(g.n_in)
    out_doc = polymap_to_document(
        g, metadata={"stage": "symmetrized",
                     "potential": poly_text(potential, names)})
    _write_outputs(args, out_doc, cert)
    return 0


def _cmd_segre(args) -> int:
    f = _load_map(args.map)
    g, cert = segre_step(f)
    _write_outputs(args, polymap_to_document(g, metadata={"stage": "segre"}), cert)
    return 0


def _cmd_verify_cert(args) -> int:
    data = _read_json(args.cert)
    if not isinstance(data, dict) or data.get("format") != "polyred-certificate":
        raise UsageError(f"'{args.cert}' is not a certificate document")
    try:
        cert = certificate_from_json(data)
    except (ValueError, KeyError, TypeError, ArithmeticError) as e:
        print(f"invalid certificate: {e}", file=sys.stderr)
        return 1
    del data  # the decoded JSON, map texts included, is not read again
    rep = verify_certificate(cert)
    fiber = None
    if rep.ok and args.fiber_samples > 0:
        fiber = fiber_transport_check(cert, seed=args.seed,
                                      samples=args.fiber_samples)
    ok = rep.ok and (fiber is None or fiber.ok)
    if args.json:
        _print_json(cert_report_to_json(rep, fiber))
    else:
        _table([
            ("structure", "valid" if rep.ok else "INVALID"),
            ("moves checked", rep.moves_checked),
            ("automorphisms checked", rep.autos_checked),
        ])
        for issue in rep.issues:
            print(f"issue: {issue}")
        if fiber is not None:
            print(f"fiber transport: {'exact' if fiber.ok else 'FAILED'} "
                  f"on {fiber.samples_run} samples "
                  f"({fiber.samples_skipped} skipped)")
            for issue in fiber.issues:
                print(f"issue: {issue}")
    return 0 if ok else 1


def _cmd_attributes(args) -> int:
    f = _load_map(args.map)
    rep = mfs_sample(f, seed=args.seed, samples=args.samples)
    if not os.path.exists(args.map) and args.map in builtin_ids():
        expected = builtin_example(args.map).expected or {}
        rep.sag_external = expected.get("sag_external")
    if args.json:
        _print_json(attribute_report_to_json(rep))
        return 0
    _table([
        ("dex", rep.dex),
        ("mfs observed", rep.mfs_observed),
        ("samples", rep.samples),
        ("seed", rep.seed),
        ("parity consistent", _yesno(rep.parity_consistent)),
        ("genericity retries", rep.genericity_retries),
        ("sag (external)", "none" if rep.sag_external is None else rep.sag_external),
    ])
    return 0


def _cmd_examples(args) -> int:
    if args.action == "list":
        rows = [(e.id, e.document.metadata.get("class", ""),
                 len(e.document.variables),
                 max(p.degree() for _, p in e.document.components))
                for e in corpus()]
        width = max(len(r[0]) for r in rows)
        for eid, cls, n, deg in rows:
            print(f"{eid:<{width}}  {cls:<8} n={n} deg={deg}")
        return 0
    if args.id is None:
        raise UsageError("examples show needs an id")
    try:
        entry = builtin_example(args.id)
    except ValueError as e:
        raise UsageError(str(e))
    sys.stdout.write(print_map(entry.document))
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyred",
        description="Exact reductions and fiber statistics for polynomial "
                    "endomorphisms over Q.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="degrees, Jacobian verdicts, form flags")
    p.add_argument("map", help="map file or built-in example id")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_count(0), default=1000,
                   help="sample count for verdicts above the exact threshold")
    _add_exact_threshold(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reduce", help="rewrite into cubic or cubic homogeneous form")
    p.add_argument("map")
    p.add_argument("--to", choices=("cubic", "yagzhev"), required=True)
    p.add_argument("--out", metavar="FILE", help="write the output map here "
                   "instead of stdout")
    p.add_argument("--cert", metavar="FILE", help="write the equivalence "
                   "certificate here as JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-dim", type=_count(1), default=DEFAULT_BUDGET.max_dim,
                   metavar="N", help="abort once a map would exceed N variables")
    p.add_argument("--budget-ms", type=_count(0), default=DEFAULT_BUDGET.max_ms,
                   metavar="MS", help="abort after MS milliseconds of pipeline "
                   "work; 0 means no time limit")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("pair-up", help="cubic linear partner of a cubic "
                       "homogeneous map")
    p.add_argument("map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pair_up)

    p = sub.add_parser("pair-down", help="cubic homogeneous partner of a "
                       "cubic linear map")
    p.add_argument("map")
    p.add_argument("--matrix", required=True, metavar="FILE",
                   help="JSON matrix A with F(x) = x + (Ax)^*3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pair_down)

    p = sub.add_parser("symmetrize", help="double the dimension to make the "
                       "differential symmetric")
    p.add_argument("map")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--cert", metavar="FILE")
    _add_exact_threshold(p)
    p.set_defaults(func=_cmd_symmetrize)

    p = sub.add_parser("segre", help="one-variable extension of a normalized "
                       "cubic map")
    p.add_argument("map")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--cert", metavar="FILE")
    p.set_defaults(func=_cmd_segre)

    p = sub.add_parser("verify-cert", help="replay and check a certificate")
    p.add_argument("cert", help="certificate JSON file")
    p.add_argument("--fiber-samples", type=_count(0), default=0, metavar="N",
                   help="also transport N graph points through the moves")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_cert)

    p = sub.add_parser("attributes", help="dex and sampled mfs of a plane map")
    p.add_argument("map")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_count(1), default=200,
                   help="sampled fibers; mfs is observed over at least one")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_attributes)

    p = sub.add_parser("examples", help="list or print the shipped corpus")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("id", nargs="?")
    p.set_defaults(func=_cmd_examples)

    return parser


_PARSER = None


def main(argv=None) -> int:
    # built on the first call and reused: parse_args starts every call
    # from a fresh namespace, so nothing carries over between calls
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (GenericityError, ValueError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
