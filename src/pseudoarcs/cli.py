"""Command line front end.

Exit status convention: 0 means verified or constructed, 1 means a
property was refuted (a witness is printed), 2 means a usage or input
error, 3 means an internal error of the program.  All primary output is
deterministic for a fixed command line; stderr carries only the error
messages of statuses 2 and 3.
"""

import argparse
import math
import sys

from . import jsonio
from .codes import (DecodeError, ERASED, WORD_BUDGET, encode, erasure_decode,
                    fold_columns, imaginary_code, is_mds, min_distance)
from .gf import Poly, factor_prime_power, tower
from .linalg import rank_ints
from .nrc import frobenius_orbit_reps, nrc_points, orbit_rep_count
from .pg54 import verify_fixture
from .projgeo import intersect
from .pseudoarc import build_imaginary_arc, extend_with_osculating, is_pseudo_arc
from .quadrics import POINT_BUDGET, is_complete_intersection, vanishing_space


def _tower_for(q, h):
    p, e = factor_prime_power(q)
    return tower(p, e, h)


def _emit(text, out_path, label):
    """Write primary output to a file (with a confirmation line) or to
    stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print("%s written to %s" % (label, out_path))
    else:
        sys.stdout.write(text)


def _emit_doc(doc, out_path, label):
    _emit(jsonio.dumps(doc), out_path, label)


def _read_doc(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise jsonio.FormatError("cannot read %s: %s" % (path, exc))
    return jsonio.loads(text)


def _read_lines(path):
    try:
        with open(path) as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise jsonio.FormatError("cannot read %s: %s" % (path, exc))


def _elements_from_doc(doc):
    """Subspace family from an arc or subspaces document."""
    kind = jsonio.document_kind(doc)
    if kind == "arc":
        tow, _, elements = jsonio.arc_elements_from_dict(doc)
        return tow, elements
    if kind == "subspaces":
        return jsonio.document_tower(doc, kind), jsonio.subspaces_from_dict(doc)
    raise jsonio.FormatError("expected an arc or subspaces document, found %r" % kind)


def _check_positive(value, name):
    if value is not None and value < 1:
        raise ValueError("%s must be positive, got %d" % (name, value))


def cmd_construct_arc(args):
    tow = _tower_for(args.q, args.h)
    arc = build_imaginary_arc(tow, args.k)
    if args.extend:
        arc = extend_with_osculating(arc)
    _emit_doc(jsonio.arc_to_dict(arc), args.out, "arc")
    return 0


def cmd_verify_arc(args):
    doc = _read_doc(args.file)
    tow, elements = _elements_from_doc(doc)
    verdict = is_pseudo_arc(elements, args.k)
    n = elements[0].ambient_dim if elements else tow.h * args.k
    order = elements[0].field.order if elements else tow.q
    report = {"schema_version": jsonio.SCHEMA_VERSION, "command": "verify-arc",
              "elements": len(elements), "k": args.k, "ok": verdict.ok,
              "subsets": math.comb(len(elements), args.k),
              "subsets_walked": verdict.walked, "decided_by": verdict.decided_by}
    if not verdict.ok:
        report["witness"] = list(verdict.witness)
    if args.json:
        sys.stdout.write(jsonio.dumps(report))
        return 0 if verdict.ok else 1
    if verdict.ok:
        print("verified: %d elements, every %d of them span PG(%d, %d)"
              % (len(elements), args.k, n - 1, order))
        return 0
    ws = verdict.witness
    stacked = [r for i in ws for r in elements[i].int_rows]
    print("refuted: elements %s span only rank %d of %d"
          % (list(ws), rank_ints(elements[0].field, stacked), n))
    if len(ws) == 2:
        meet = intersect(elements[ws[0]], elements[ws[1]])
        for row in meet.int_rows:
            print("common point: %s" % " ".join(map(str, row)))
    return 1


def cmd_verify_example(args):
    checks = verify_fixture()
    ok = all(c[1] for c in checks)
    if args.json:
        report = {"schema_version": jsonio.SCHEMA_VERSION, "command": "verify-example",
                  "ok": ok,
                  "checks": [{"name": name, "ok": good, "detail": detail}
                             for name, good, detail in checks]}
        sys.stdout.write(jsonio.dumps(report))
        return 0 if ok else 1
    for name, good, detail in checks:
        print("%-4s %-24s %s" % ("ok" if good else "FAIL", name, detail))
    if ok:
        print("fixture verified: %d checks" % len(checks))
        return 0
    first = next(name for name, good, _ in checks if not good)
    print("fixture refuted: first failing check is %r" % first)
    return 1


def cmd_lambda(args):
    if args.k < 2:
        raise ValueError("k must be at least 2")
    tow = _tower_for(args.q, args.h)
    reps = frobenius_orbit_reps(tow)
    expected = orbit_rep_count(args.q, args.h)
    agree = len(reps) == expected
    if args.json or args.out:
        doc = {"schema_version": jsonio.SCHEMA_VERSION, "kind": "lambda",
               "field": jsonio.field_header(tow),
               "reps": [r.val for r in reps],
               "mobius_count": expected,
               "k": args.k,
               "nrc_points": [[c.val for c in pt.coords]
                              for pt in nrc_points(tow.top, tow.h * args.k)]}
        _emit_doc(doc, args.out, "lambda")
        return 0 if agree else 1
    print("representatives (%d): %s"
          % (len(reps), " ".join(str(r.val) for r in reps)))
    print("mobius count: %d" % expected)
    print("agreement: %s" % ("ok" if agree else "MISMATCH"))
    return 0 if agree else 1


def cmd_quadrics_through(args):
    doc = _read_doc(args.file)
    tow, elements = _elements_from_doc(doc)
    if not elements:
        raise jsonio.FormatError("no subspaces in %s" % args.file)
    forms = vanishing_space(elements)
    level = "base" if elements[0].field is tow.base else "top"
    if args.json or args.out:
        doc_out = jsonio.forms_to_dict(forms, tow, level=level,
                                       n=elements[0].ambient_dim)
        _emit_doc(doc_out, args.out, "forms")
        return 0
    print("dimension: %d" % len(forms))
    for i, f in enumerate(forms):
        print("form %d: %s" % (i, " ".join(str(c.val) for c in f.coeffs)))
    return 0


def cmd_quadrics_certify(args):
    _check_positive(args.max_points, "point budget")
    tow, elements = _elements_from_doc(_read_doc(args.file))
    if not elements:
        raise jsonio.FormatError("no subspaces in %s" % args.file)
    forms_doc = _read_doc(args.forms)
    # the document names its space even when it holds no forms
    field, n = jsonio.forms_space(forms_doc)
    if n != elements[0].ambient_dim:
        raise jsonio.FormatError(
            "forms document: n = %d, the subspaces have ambient dimension %d"
            % (n, elements[0].ambient_dim))
    if field is not elements[0].field:
        raise jsonio.FormatError(
            "forms document: level %r is %r, the subspaces are over %r"
            % (forms_doc["level"], field, elements[0].field))
    forms = jsonio.forms_from_dict(forms_doc)
    verdict = is_complete_intersection(elements, forms, max_points=args.max_points)
    if args.json:
        report = {"schema_version": jsonio.SCHEMA_VERSION,
                  "command": "quadrics certify-ci", "ok": verdict.ok,
                  "extra": None if verdict.extra is None else list(verdict.extra),
                  "missed": None if verdict.missed is None else list(verdict.missed),
                  "points_scanned": verdict.scanned}
        sys.stdout.write(jsonio.dumps(report))
        return 0 if verdict.ok else 1
    if verdict.ok:
        print("certified: the zero set of %d forms is exactly the union of "
              "%d subspaces" % (len(forms), len(elements)))
        return 0
    if verdict.extra is not None:
        print("refuted: extra zero outside the configuration: %s"
              % " ".join(str(v) for v in verdict.extra))
    else:
        print("refuted: configuration point missed by a form: %s"
              % " ".join(str(v) for v in verdict.missed))
    return 1


def cmd_code_gen(args):
    tow = _tower_for(args.q, args.h)
    code = imaginary_code(tow, args.k, args.extend)
    _emit_doc(jsonio.code_to_dict(code), args.out, "code")
    return 0


def cmd_code_encode(args):
    code = jsonio.code_from_dict(_read_doc(args.code))
    hk = code.h * code.k_msg
    try:
        coeffs = [int(ln) for ln in _read_lines(args.message)]
    except ValueError:
        raise jsonio.FormatError("message file: one integer per line")
    if len(coeffs) > hk:
        raise jsonio.FormatError("message has %d coefficients, at most %d allowed"
                                 % (len(coeffs), hk))
    word = encode(Poly.from_ints(code.tow.base, coeffs), code)
    if args.json:
        doc = {"schema_version": jsonio.SCHEMA_VERSION, "kind": "word",
               "field": jsonio.field_header(code.tow),
               "coords": [x.val for x in word]}
        _emit_doc(doc, args.out, "word")
    else:
        _emit("".join("%d\n" % x.val for x in word), args.out, "word")
    return 0


def cmd_code_decode(args):
    code = jsonio.code_from_dict(_read_doc(args.code))
    top = code.tow.top
    word = []
    for ln in _read_lines(args.word):
        if ln == "E":
            word.append(ERASED)
        else:
            try:
                v = int(ln)
            except ValueError:
                raise jsonio.FormatError(
                    "word file: one integer or E per line, got %r" % ln)
            if not 0 <= v < top.order:
                raise jsonio.FormatError(
                    "word file: line %r is out of range, GF(%d) encodings are "
                    "0..%d" % (ln, top.order, top.order - 1))
            word.append(top.element(v))
    try:
        f = erasure_decode(word, code)
    except DecodeError as exc:
        if args.json:
            sys.stdout.write(jsonio.dumps(
                {"schema_version": jsonio.SCHEMA_VERSION, "command": "code decode",
                 "ok": False, "error": str(exc)}))
        else:
            print("decode failed: %s" % exc)
        return 1
    hk = code.h * code.k_msg
    coeffs = [f.coefficient(i).val for i in range(hk)]
    if args.json:
        doc = {"schema_version": jsonio.SCHEMA_VERSION, "kind": "message",
               "field": jsonio.field_header(code.tow), "coeffs": coeffs}
        _emit_doc(doc, args.out, "message")
    else:
        _emit("".join("%d\n" % c for c in coeffs), args.out, "message")
    return 0


def cmd_code_distance(args):
    _check_positive(args.max_words, "word budget")
    code = jsonio.code_from_dict(_read_doc(args.code))
    d = min_distance(code, max_words=args.max_words)
    singleton = code.n - code.k_msg + 1
    mds = is_mds(code)
    if args.json:
        sys.stdout.write(jsonio.dumps(
            {"schema_version": jsonio.SCHEMA_VERSION, "command": "code distance",
             "n": code.n, "k": code.k_msg, "distance": d,
             "singleton": singleton, "mds": mds}))
        return 0
    print("length: %d" % code.n)
    print("distance: %d" % d)
    print("singleton bound: %d" % singleton)
    print("mds: %s" % ("true" if mds else "false"))
    return 0


def cmd_code_fold(args):
    code = jsonio.code_from_dict(_read_doc(args.code))
    _emit_doc(jsonio.subspaces_to_dict(fold_columns(code), code.tow),
              args.out, "subspaces")
    return 0


def _reexport(doc):
    """Rebuild the in-memory object behind a document and re-serialize
    it; proves the file imports cleanly and normalizes it."""
    kind = jsonio.document_kind(doc)
    if kind == "arc":
        return jsonio.arc_to_dict(jsonio.arc_from_dict(doc))
    if kind == "subspaces":
        elements = jsonio.subspaces_from_dict(doc)
        return jsonio.subspaces_to_dict(elements, jsonio.document_tower(doc, kind))
    if kind == "code":
        return jsonio.code_to_dict(jsonio.code_from_dict(doc))
    if kind == "forms":
        forms = jsonio.forms_from_dict(doc)
        # forms_from_dict has checked the level and n
        return jsonio.forms_to_dict(forms, jsonio.document_tower(doc, kind),
                                    level=doc["level"], n=doc["n"])
    raise jsonio.FormatError("cannot re-export a %r document" % kind)


def cmd_export(args):
    doc = _read_doc(args.file)
    out_doc = _reexport(doc)
    _emit_doc(out_doc, args.out, out_doc["kind"])
    return 0


def cmd_import(args):
    doc = _read_doc(args.file)
    kind = jsonio.document_kind(doc)
    if kind == "arc":
        arc = jsonio.arc_from_dict(doc)
        summary = ("arc: %d elements, h=%d k=%d q=%d"
                   % (len(arc.elements), arc.h, arc.k, arc.q))
    elif kind == "subspaces":
        elements = jsonio.subspaces_from_dict(doc)
        summary = ("subspaces: %d elements of rank %s in dimension %d"
                   % (len(elements),
                      sorted(set(el.rank for el in elements)),
                      doc["ambient_dim"]))
    elif kind == "code":
        code = jsonio.code_from_dict(doc)
        summary = ("code: n=%d k=%d over GF(%d)"
                   % (code.n, code.k_msg, code.tow.top.order))
    elif kind == "forms":
        forms = jsonio.forms_from_dict(doc)
        summary = "forms: %d forms in %d variables" % (len(forms), doc["n"])
    elif kind == "lambda":
        tow = jsonio.document_tower(doc, kind)
        reps = frobenius_orbit_reps(tow)
        if [r.val for r in reps] != jsonio.required(doc, "reps", list,
                                                    "lambda document"):
            raise jsonio.FormatError("representative list is not the canonical one")
        summary = ("lambda: %d representatives for h=%d q=%d"
                   % (len(reps), tow.h, tow.q))
    else:
        raise jsonio.FormatError("unknown document kind %r" % kind)
    if args.json:
        sys.stdout.write(jsonio.dumps(
            {"schema_version": jsonio.SCHEMA_VERSION, "command": "import",
             "kind": kind, "ok": True, "summary": summary}))
    else:
        print(summary)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pseudoarcs",
        description="Exact constructions and checks for pseudo-arcs from "
                    "imaginary curve points, and the additive codes they carry.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("construct-arc", help="build the imaginary-point family")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--extend", action="store_true",
                   help="append the osculating-space elements and infinity")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_construct_arc)

    p = sub.add_parser("verify-arc", help="check the spanning property of a family")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_arc)

    p = sub.add_parser("verify-example", help="re-verify the bundled PG(5,4) family")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_example)

    p = sub.add_parser("lambda", help="orbit representatives of the top field")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=2,
                   help="ambient dimension hk for the exported curve points")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("quadrics", help="vanishing quadrics of a family")
    qsub = p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    p2 = qsub.add_parser("through", help="basis of the forms vanishing on a family")
    p2.add_argument("file")
    p2.add_argument("--json", action="store_true")
    p2.add_argument("--out", metavar="FILE")
    p2.set_defaults(func=cmd_quadrics_through)
    p2 = qsub.add_parser("certify-ci",
                         help="certify a family as the exact zero set of forms")
    p2.add_argument("file")
    p2.add_argument("forms")
    p2.add_argument("--max-points", type=int, default=POINT_BUDGET)
    p2.add_argument("--json", action="store_true")
    p2.set_defaults(func=cmd_quadrics_certify)

    p = sub.add_parser("code", help="additive code construction and checks")
    csub = p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    p2 = csub.add_parser("gen", help="evaluation code over the full orbit family")
    p2.add_argument("--h", type=int, required=True)
    p2.add_argument("--k", type=int, required=True)
    p2.add_argument("--q", type=int, required=True)
    p2.add_argument("--extend", action="store_true",
                    help="append derivative columns at every t and at infinity")
    p2.add_argument("--out", metavar="FILE")
    p2.set_defaults(func=cmd_code_gen)
    p2 = csub.add_parser("encode", help="encode a message file")
    p2.add_argument("code")
    p2.add_argument("message", help="one integer coefficient per line")
    p2.add_argument("--json", action="store_true")
    p2.add_argument("--out", metavar="FILE")
    p2.set_defaults(func=cmd_code_encode)
    p2 = csub.add_parser("decode", help="recover a message from an erased word")
    p2.add_argument("code")
    p2.add_argument("word", help="one integer or E per line")
    p2.add_argument("--json", action="store_true")
    p2.add_argument("--out", metavar="FILE")
    p2.set_defaults(func=cmd_code_decode)
    p2 = csub.add_parser("distance", help="exhaustive minimum distance")
    p2.add_argument("code")
    p2.add_argument("--max-words", type=int, default=WORD_BUDGET)
    p2.add_argument("--json", action="store_true")
    p2.set_defaults(func=cmd_code_distance)
    p2 = csub.add_parser("fold", help="column subspaces of a code")
    p2.add_argument("code")
    p2.add_argument("--out", metavar="FILE")
    p2.set_defaults(func=cmd_code_fold)

    p = sub.add_parser("export", help="normalize an artifact file")
    p.add_argument("file")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("import", help="validate an artifact file and summarize it")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_import)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # jsonio.FormatError is a ValueError; a KeyError or TypeError is
        # a fault of the program, not of its input
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # an InvariantError or any other fault of the program: never a
        # verdict, so neither 1 (refuted) nor a traceback
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
