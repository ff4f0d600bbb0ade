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
from functools import partial

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


def _read_lines(path, field, size, word):
    """The non-blank lines of a word file (exactly ``size`` of them, an
    ``E`` line for an erased position) or of a message file (at most
    ``size``) as elements of ``field``, ERASED for an ``E``.  A
    FormatError names the file, and the line it is about."""
    try:
        with open(path) as fh:
            lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    except OSError as exc:
        raise jsonio.FormatError("cannot read %s: %s" % (path, exc))
    where = "%s file %s" % ("word" if word else "message", path)
    if len(lines) > size or (word and len(lines) < size):
        raise jsonio.FormatError("%s: %d lines, expected %s%d"
                                 % (where, len(lines), "" if word else "at most ", size))
    out = []
    for no, ln in lines:
        if word and ln == "E":
            out.append(ERASED)
            continue
        try:
            v = int(ln)
        except ValueError:
            raise jsonio.FormatError("%s, line %d: one integer%s per line, got %r"
                                     % (where, no, " or E" if word else "", ln))
        if not 0 <= v < field.order:
            raise jsonio.FormatError(
                "%s, line %d: %r is out of range, GF(%d) encodings are 0..%d"
                % (where, no, ln, field.order, field.order - 1))
        out.append(field.element(v))
    return out


def _report(args, command, report, lines):
    """Write a verdict: under ``--json`` the ``report`` with its
    schema_version and command, else its text ``lines``.  The exit
    status is 1 when the report's ``ok`` is false, else 0."""
    if args.json:
        sys.stdout.write(jsonio.dumps(dict(report, command=command,
                                           schema_version=jsonio.SCHEMA_VERSION)))
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    return 0 if report.get("ok", True) else 1


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
    if value < 1:
        raise ValueError("%s must be positive, got %d" % (name, value))


def cmd_construct_arc(args):
    tow = _tower_for(args.q, args.h)
    arc = build_imaginary_arc(tow, args.k)
    if args.extend:
        arc = extend_with_osculating(arc)
    _emit_doc(jsonio.arc_to_dict(arc), args.out, "arc")
    return 0


def cmd_verify_arc(args):
    _, elements = _elements_from_doc(_read_doc(args.file))
    verdict = is_pseudo_arc(elements, args.k)
    n, order = elements[0].ambient_dim, elements[0].field.order
    report = {"elements": len(elements), "k": args.k, "ok": verdict.ok,
              "subsets": math.comb(len(elements), args.k),
              "subsets_walked": verdict.walked, "decided_by": verdict.decided_by}
    if verdict.ok:
        return _report(args, "verify-arc", report, [
            "verified: %d elements, every %d of them span PG(%d, %d)"
            % (len(elements), args.k, n - 1, order)])
    ws = report["witness"] = list(verdict.witness)

    def refutation():
        stacked = [r for i in ws for r in elements[i].int_rows]
        yield ("refuted: elements %s span only rank %d of %d"
               % (ws, rank_ints(elements[0].field, stacked), n))
        if len(ws) == 2:
            for row in intersect(elements[ws[0]], elements[ws[1]]).int_rows:
                yield "common point: %s" % " ".join(map(str, row))
    return _report(args, "verify-arc", report, refutation())


def cmd_verify_example(args):
    checks = verify_fixture()
    ok = all(c[1] for c in checks)
    lines = ["%-4s %-24s %s" % ("ok" if good else "FAIL", name, detail)
             for name, good, detail in checks]
    if ok:
        lines.append("fixture verified: %d checks" % len(checks))
    else:
        lines.append("fixture refuted: first failing check is %r"
                     % next(name for name, good, _ in checks if not good))
    return _report(args, "verify-example", {
        "ok": ok, "checks": [{"name": name, "ok": good, "detail": detail}
                             for name, good, detail in checks]}, lines)


def cmd_lambda(args):
    if args.k < 2:
        raise ValueError("k must be at least 2")
    tow = _tower_for(args.q, args.h)
    # frobenius_orbit_reps checks its count against the Moebius count
    reps = frobenius_orbit_reps(tow)
    expected = orbit_rep_count(args.q, args.h)
    if args.json or args.out:
        doc = {"schema_version": jsonio.SCHEMA_VERSION, "kind": "lambda",
               "field": jsonio.field_header(tow),
               "reps": [r.val for r in reps],
               "mobius_count": expected,
               "k": args.k,
               "nrc_points": [[c.val for c in pt.coords]
                              for pt in nrc_points(tow.top, tow.h * args.k)]}
        _emit_doc(doc, args.out, "lambda")
        return 0
    print("representatives (%d): %s"
          % (len(reps), " ".join(str(r.val) for r in reps)))
    print("mobius count: %d" % expected)
    print("agreement: ok")
    return 0


def cmd_quadrics_through(args):
    tow, elements = _elements_from_doc(_read_doc(args.file))
    forms = vanishing_space(elements)
    level = "base" if elements[0].field is tow.base else "top"
    if args.json or args.out:
        _emit_doc(jsonio.forms_to_dict(forms, tow, level=level,
                                       n=elements[0].ambient_dim), args.out, "forms")
        return 0
    print("dimension: %d" % len(forms))
    for i, f in enumerate(forms):
        print("form %d: %s" % (i, " ".join(str(c.val) for c in f.coeffs)))
    return 0


def cmd_quadrics_certify(args):
    _check_positive(args.max_points, "point budget")
    tow, elements = _elements_from_doc(_read_doc(args.file))
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
    if verdict.ok:
        line = ("certified: the zero set of %d forms is exactly the union of "
                "%d subspaces" % (len(forms), len(elements)))
    elif verdict.extra is not None:
        line = ("refuted: extra zero outside the configuration: %s"
                % " ".join(map(str, verdict.extra)))
    else:
        line = ("refuted: configuration point missed by a form: %s"
                % " ".join(map(str, verdict.missed)))
    return _report(args, "quadrics certify-ci", {
        "ok": verdict.ok,
        "extra": None if verdict.extra is None else list(verdict.extra),
        "missed": None if verdict.missed is None else list(verdict.missed),
        "points_scanned": verdict.scanned}, [line])


def cmd_code_gen(args):
    tow = _tower_for(args.q, args.h)
    code = imaginary_code(tow, args.k, args.extend)
    _emit_doc(jsonio.code_to_dict(code), args.out, "code")
    return 0


def _emit_values(args, code, kind, key, values):
    """A word or message: a document under ``--json``, else the encodings
    one per line, as ``_read_lines`` reads them."""
    if args.json:
        _emit_doc({"schema_version": jsonio.SCHEMA_VERSION, "kind": kind,
                   "field": jsonio.field_header(code.tow), key: values},
                  args.out, kind)
    else:
        _emit("".join("%d\n" % v for v in values), args.out, kind)
    return 0


def cmd_code_encode(args):
    code = jsonio.code_from_dict(_read_doc(args.code))
    base = code.tow.base
    message = _read_lines(args.message, base, code.h * code.k_msg, word=False)
    word = encode(Poly(base, message), code)
    return _emit_values(args, code, "word", "coords", [x.val for x in word])


def cmd_code_decode(args):
    code = jsonio.code_from_dict(_read_doc(args.code))
    word = _read_lines(args.word, code.tow.top, code.n, word=True)
    try:
        f = erasure_decode(word, code)
    except DecodeError as exc:
        return _report(args, "code decode", {"ok": False, "error": str(exc)},
                       ["decode failed: %s" % exc])
    return _emit_values(args, code, "message", "coeffs",
                        [f.coefficient(i).val for i in range(code.h * code.k_msg)])


def cmd_code_distance(args):
    _check_positive(args.max_words, "word budget")
    code = jsonio.code_from_dict(_read_doc(args.code))
    d = min_distance(code, max_words=args.max_words)
    singleton = code.n - code.k_msg + 1
    mds = is_mds(code)
    return _report(args, "code distance", {
        "n": code.n, "k": code.k_msg, "distance": d, "singleton": singleton,
        "mds": mds}, ["length: %d" % code.n, "distance: %d" % d,
                      "singleton bound: %d" % singleton,
                      "mds: %s" % ("true" if mds else "false")])


def cmd_code_fold(args):
    code = jsonio.code_from_dict(_read_doc(args.code))
    _emit_doc(jsonio.subspaces_to_dict(fold_columns(code), code.tow),
              args.out, "subspaces")
    return 0


def _load(doc):
    """(kind, summary, rewrite) of a document: the line ``import``
    prints, and a call giving the normalized document ``export`` writes,
    None for a lambda document, which is checked but not rewritten.
    Both are None for a kind neither command reads."""
    kind = jsonio.document_kind(doc)
    summary = rewrite = None
    if kind == "arc":
        arc = jsonio.arc_from_dict(doc)
        summary = ("arc: %d elements, h=%d k=%d q=%d"
                   % (len(arc.elements), arc.h, arc.k, arc.q))
        rewrite = partial(jsonio.arc_to_dict, arc)
    elif kind == "subspaces":
        elements = jsonio.subspaces_from_dict(doc)
        summary = ("subspaces: %d elements of rank %s in dimension %d"
                   % (len(elements), sorted(set(el.rank for el in elements)),
                      doc["ambient_dim"]))
        rewrite = partial(jsonio.subspaces_to_dict, elements,
                          jsonio.document_tower(doc, kind))
    elif kind == "code":
        code = jsonio.code_from_dict(doc)
        summary = ("code: n=%d k=%d over GF(%d)"
                   % (code.n, code.k_msg, code.tow.top.order))
        rewrite = partial(jsonio.code_to_dict, code)
    elif kind == "forms":
        # forms_from_dict checks the level and n
        forms = jsonio.forms_from_dict(doc)
        summary = "forms: %d forms in %d variables" % (len(forms), doc["n"])
        rewrite = partial(jsonio.forms_to_dict, forms, jsonio.document_tower(doc, kind),
                          level=doc["level"], n=doc["n"])
    elif kind == "lambda":
        tow = jsonio.document_tower(doc, kind)
        reps = frobenius_orbit_reps(tow)
        if [r.val for r in reps] != jsonio.required(doc, "reps", list,
                                                    "lambda document"):
            raise jsonio.FormatError("representative list is not the canonical one")
        summary = ("lambda: %d representatives for h=%d q=%d"
                   % (len(reps), tow.h, tow.q))
    return kind, summary, rewrite


def cmd_export(args):
    """Rebuild the in-memory object behind a document and re-serialize
    it; proves the file imports cleanly and normalizes it."""
    kind, _, rewrite = _load(_read_doc(args.file))
    if rewrite is None:
        raise jsonio.FormatError("cannot re-export a %r document" % kind)
    _emit_doc(rewrite(), args.out, kind)
    return 0


def cmd_import(args):
    kind, summary, _ = _load(_read_doc(args.file))
    if summary is None:
        raise jsonio.FormatError("unknown document kind %r" % kind)
    return _report(args, "import", {"kind": kind, "ok": True, "summary": summary},
                   [summary])


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
