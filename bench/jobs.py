"""The benchmark's workloads: parameter grids, seeded job plans, and the
jobs themselves.

A job does the work of one command line invocation of `pseudoarcs`, in
process and through the same public calls the command makes: field
set-up, construction, the JSON round trip, and the verdict.  Every
answer is checked against a value the benchmark knows without asking
the code under test (a closed formula, the planted defect, or a small
independent computation over a prime field).

Importing this module imports `pseudoarcs`; the caller puts the
checkout's `src` directory on `sys.path` first.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from pseudoarcs import jsonio
from pseudoarcs.codes import (DecodeError, ERASED, encode, erasure_decode,
                              evaluation_code, extend_with_derivatives,
                              is_mds, min_distance)
from pseudoarcs.gf import Poly, factor_prime_power, tower
from pseudoarcs.nrc import frobenius_orbit_reps, nrc_points
from pseudoarcs.pg54 import verify_fixture
from pseudoarcs.projgeo import Subspace, block_spread
from pseudoarcs.pseudoarc import (build_imaginary_arc, extend_with_osculating,
                                  is_pseudo_arc)
from pseudoarcs.quadrics import (QuadraticForm, is_complete_intersection,
                                 trace_reduce, vanishing_space)

# (h, k, q): construct-arc with and without --extend, then verify-arc
ARCS_GRID = [(2, 2, 7), (2, 2, 9), (2, 2, 11), (2, 2, 13), (2, 2, 16),
             (2, 3, 7), (2, 3, 8), (3, 2, 7)]
# one planted job per h = 2 point; an h = 3 construction alone costs as
# much as the median job, which would then move with the seed
ARCS_PLANTED = [g for g in ARCS_GRID if g[0] == 2]

# (h, k, q): code gen --extend, then code distance; plus verify-example
DISTANCE_GRID = [(2, 2, 5), (2, 2, 7), (2, 2, 8), (2, 2, 9)]

# (h, k, q, extended): code encode, erasures, code decode
ROUNDTRIP_CODES = [(2, 2, 5, True), (2, 2, 13, True), (2, 2, 16, False),
                   (2, 2, 32, False), (2, 2, 64, False), (3, 2, 8, False),
                   (2, 3, 16, False)]
ROUNDTRIP_JOBS_PER_CODE = 2
ROUNDTRIP_CHANGED_PER_CYCLE = 2
ROUNDTRIP_UNDER_PER_CYCLE = 1

# quadrics through: built arcs (h, k, q) and rational curves (k, q);
# quadrics certify-ci: curves with their standard system, and the conic
QUADRICS_ARCS = [(2, 2, 5), (2, 2, 7), (2, 2, 9)]
QUADRICS_CURVES = [(3, 7), (3, 11), (4, 7), (4, 11), (5, 11)]
QUADRICS_CERTIFY = [(4, 11), (5, 11), (5, 13)]
QUADRICS_PLANT_CURVES = [(3, 7), (3, 11), (4, 7), (4, 11), (5, 11), (5, 13)]
CONIC_Q = 25

@dataclass(frozen=True)
class Job:
    """One job's complete input; a cycle's jobs are drawn from the seed
    before any of them runs, so a replay repeats them exactly."""

    kind: str            # arc | distance | fixture | roundtrip | through | certify
    params: Tuple = ()   # (h, k, q) or (k, q); roundtrip: (h, k, q, extended)
    extend: bool = False
    target: str = ""     # through / certify: arc | curve | conic
    plant: Tuple = ()    # arc, distance: (i, j); certify: an off-curve point
    message: Tuple = ()  # roundtrip: base-field coefficients
    survivors: Tuple = ()  # roundtrip: unerased coordinates
    change: Tuple = ()   # roundtrip: (coordinate, new value)


@dataclass
class Outcome:
    """What a job produced: its primary output (the bytes the command
    would print or write), its work units, the per-layer counts, and
    whether the answer was the expected one."""

    output: str
    work: int
    counts: Dict[str, int]
    ok: bool
    detail: str = ""


# -- closed formulas the checks rely on ---------------------------------

def lambda_size(q: int, h: int) -> int:
    """Number of size-h Frobenius orbits of generators of GF(q^h):
    (1/h) * sum over d | h of mobius(d) * q^(h/d)."""
    total = 0
    for d in range(1, h + 1):
        if h % d == 0:
            total += _mobius(d) * q ** (h // d)
    return total // h


def _mobius(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def arc_size(h: int, q: int, extend: bool) -> int:
    return lambda_size(q, h) + (q + 1 if extend else 0)


def planted_witness(i: int, j: int, k: int) -> Tuple[int, ...]:
    """First failing k-subset after element j is replaced by a copy of
    element i < j: only subsets holding both i and j fail, and the
    lexicographically first of them fills up with the smallest other
    indices."""
    others = [x for x in range(k) if x not in (i, j)][:k - 2]
    return tuple(sorted(others + [i, j]))


def subsets_through(witness: Tuple[int, ...], n: int) -> int:
    """How many k-subsets of range(n) come up to and including
    `witness` in lexicographic order."""
    k = len(witness)
    before = 0
    prev = -1
    for pos, c in enumerate(witness):
        for v in range(prev + 1, c):
            before += math.comb(n - 1 - v, k - 1 - pos)
        prev = c
    return before + 1


def points_of(q: int, rank: int) -> int:
    return (q ** rank - 1) // (q - 1)


def curve_vector(t: Optional[int], k: int, p: int) -> Tuple[int, ...]:
    """Normalized curve point (1, t, ..., t^(k-1)) mod prime p, or the
    point at infinity for t = None."""
    if t is None:
        return tuple([0] * (k - 1) + [1])
    return tuple(pow(t, i, p) for i in range(k))


def standard_system_rref(k: int, p: int) -> List[List[int]]:
    """Reduced row echelon basis of the forms x_i x_j - x_(i+1) x_(j-1)
    (1-indexed, i <= j - 2) over the prime field GF(p), in the
    coefficient layout of one entry per monomial x_a x_b with a <= b,
    row-major.  Computed here with plain integers, independently of
    the package."""
    index = {pair: pos for pos, pair in
             enumerate((a, b) for a in range(k) for b in range(a, k))}
    rows = []
    for j in range(3, k + 1):
        for i in range(1, j - 1):
            row = [0] * len(index)
            row[index[(i - 1, j - 1)]] += 1
            lo, hi = min(i, j - 2), max(i, j - 2)
            row[index[(lo, hi)]] -= 1
            rows.append([x % p for x in row])
    return _rref_mod(rows, p)


def _rref_mod(rows: List[List[int]], p: int) -> List[List[int]]:
    mat = [list(r) for r in rows]
    out_rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((i for i in range(out_rank, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[out_rank], mat[pr] = mat[pr], mat[out_rank]
        inv = pow(mat[out_rank][c], p - 2, p)
        mat[out_rank] = [x * inv % p for x in mat[out_rank]]
        for i in range(len(mat)):
            if i != out_rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[out_rank])]
        out_rank += 1
    return mat[:out_rank]


def normalize(vec: Tuple[int, ...], p: int) -> Tuple[int, ...]:
    lead = next(x for x in vec if x)
    inv = pow(lead, p - 2, p)
    return tuple(x * inv % p for x in vec)


# -- set-up -------------------------------------------------------------

class Context:
    """Per-process state of a workload run: the towers and codes built
    in set-up, and the fields they cover (for the table-entry count)."""

    def __init__(self, tracer):
        self.tr = tracer
        self.fields = set()
        self.codes = {}

    def tower(self, q: int, h: int):
        p, e = factor_prime_power(q)
        with self.tr.span("gf.tower"):
            tow = tower(p, e, h)
        self.fields.add((p, e))
        self.fields.add((p, e * h))
        return tow

    def table_entries(self) -> int:
        return sum(p ** m for p, m in self.fields)

    def code(self, key):
        """The roundtrip code for (h, k, q, extended), built on first use."""
        if key not in self.codes:
            h, k, q, extended = key
            self.codes[key] = gen_code(self, h, k, q, extended)
        return self.codes[key]


def gen_code(ctx: Context, h: int, k: int, q: int, extended: bool):
    """What `code gen` does before writing its document."""
    tow = ctx.tower(q, h)
    with ctx.tr.span("nrc.orbit_reps"):
        reps = list(frobenius_orbit_reps(tow))
    with ctx.tr.span("codes.gen"):
        code = evaluation_code(tow, reps, k)
        if extended:
            code = extend_with_derivatives(code, list(tow.base.elements()),
                                           include_infty=True)
    return code


def setup(workload: str, ctx: Context) -> Dict[str, int]:
    """Build every tower the workload uses, and every roundtrip code.
    Returns the per-layer counts of that work."""
    counts = {}
    if workload == "arcs":
        for h, k, q in ARCS_GRID:
            ctx.tower(q, h)
    elif workload == "distance":
        for h, k, q in DISTANCE_GRID:
            ctx.tower(q, h)
        ctx.tower(4, 2)  # the PG(5, 4) fixture
    elif workload == "roundtrip":
        for key in ROUNDTRIP_CODES:
            code = ctx.code(key)
            if code.n != arc_size(key[0], key[2], key[3]):
                raise RuntimeError("code %s has length %d" % (key, code.n))
        counts["nrc.reps"] = sum(lambda_size(q, h)
                                 for h, k, q, _ in ROUNDTRIP_CODES)
    elif workload == "quadrics":
        for h, k, q in QUADRICS_ARCS:
            ctx.tower(q, h)
        for k, q in QUADRICS_PLANT_CURVES:
            ctx.tower(q, 1)
        ctx.tower(CONIC_Q, 1)
    else:
        raise ValueError("unknown workload %r" % workload)
    return counts


# -- seeded plans -------------------------------------------------------

def plan_cycle(workload: str, rng) -> List[Job]:
    """One cycle of jobs.  Every cycle of a workload holds the same
    parameter points; the seed sets the order, the planted defects, the
    messages and the erasure patterns."""
    if workload == "arcs":
        jobs = [Job("arc", g, extend=e) for g in ARCS_GRID for e in (False, True)]
        for h, k, q in ARCS_PLANTED:
            extend = rng.random() < 0.5
            n = arc_size(h, q, extend)
            i = rng.randrange(k)
            jobs.append(Job("arc", (h, k, q), extend=extend,
                            plant=(i, rng.randrange(i + 1, n))))
    elif workload == "distance":
        jobs = [Job("distance", g, extend=True) for g in DISTANCE_GRID]
        slot = rng.randrange(len(jobs))
        h, k, q = DISTANCE_GRID[slot]
        i, j = sorted(rng.sample(range(arc_size(h, q, True)), 2))
        jobs[slot] = Job("distance", (h, k, q), extend=True, plant=(i, j))
        jobs.append(Job("fixture"))
    elif workload == "roundtrip":
        kinds = ["clean"] * (len(ROUNDTRIP_CODES) * ROUNDTRIP_JOBS_PER_CODE)
        slots = rng.sample(range(len(kinds)),
                           ROUNDTRIP_CHANGED_PER_CYCLE + ROUNDTRIP_UNDER_PER_CYCLE)
        for s in slots[:ROUNDTRIP_CHANGED_PER_CYCLE]:
            kinds[s] = "changed"
        for s in slots[ROUNDTRIP_CHANGED_PER_CYCLE:]:
            kinds[s] = "under"
        keys = [key for key in ROUNDTRIP_CODES
                for _ in range(ROUNDTRIP_JOBS_PER_CODE)]
        jobs = [roundtrip_job(key, kind, rng) for key, kind in zip(keys, kinds)]
    elif workload == "quadrics":
        jobs = [Job("through", g, extend=e, target="arc")
                for g in QUADRICS_ARCS for e in (False, True)]
        jobs += [Job("through", c, target="curve") for c in QUADRICS_CURVES]
        jobs += [Job("certify", c, target="curve") for c in QUADRICS_CERTIFY]
        jobs.append(Job("certify", (3, CONIC_Q), target="conic"))
        k, q = rng.choice(QUADRICS_PLANT_CURVES)
        jobs.append(Job("certify", (k, q), target="curve",
                        plant=off_curve_point(k, q, rng)))
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(jobs)
    return jobs


def roundtrip_job(key, kind: str, rng) -> Job:
    h, k, q, extended = key
    n = arc_size(h, q, extended)
    message = tuple(rng.randrange(q) for _ in range(h * k))
    if kind == "under":
        count = rng.randrange(k)
    elif kind == "changed":
        count = rng.randrange(k + 1, n + 1)
    else:
        count = rng.randrange(k, n + 1)
    survivors = tuple(sorted(rng.sample(range(n), count)))
    change = ()
    if kind == "changed":
        # a nonzero offset, added to the encoding modulo the field order
        change = (rng.choice(survivors), rng.randrange(1, q ** h))
    return Job("roundtrip", key, message=message, survivors=survivors,
               change=change)


def off_curve_point(k: int, q: int, rng) -> Tuple[int, ...]:
    """A normalized point of PG(k-1, q), q prime, off the rational curve."""
    curve = {curve_vector(t, k, q) for t in range(q)}
    curve.add(curve_vector(None, k, q))
    while True:
        vec = tuple(rng.randrange(q) for _ in range(k))
        if any(vec):
            vec = normalize(vec, q)
            if vec not in curve:
                return vec


# one small job of every kind, run at the end of a traced run so that
# every layer has spans on every workload
COVERAGE_JOBS = [
    Job("arc", (2, 2, 5), extend=True),
    Job("distance", (2, 2, 5), extend=True),
    Job("roundtrip", (2, 2, 5, True), message=(1, 2, 3, 4),
        survivors=(0, 5, 9)),
    Job("roundtrip", (2, 2, 5, True), message=(4, 3, 2, 1), survivors=(7,)),
    Job("through", (3, 7), target="curve"),
    Job("certify", (4, 7), target="curve"),
]


# -- the jobs -----------------------------------------------------------

def run_job(job: Job, ctx: Context) -> Outcome:
    return _RUNNERS[job.kind](job, ctx)


def _dump(tr, doc) -> str:
    with tr.span("jsonio.dump"):
        return jsonio.dumps(doc)


def _construct_arc(ctx: Context, h: int, k: int, q: int, extend: bool) -> dict:
    """construct-arc [--extend]: the arc document before it is written."""
    tow = ctx.tower(q, h)
    with ctx.tr.span("pseudoarc.construct"):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            arc = build_imaginary_arc(tow, k)
            if extend:
                arc = extend_with_osculating(arc)
    with ctx.tr.span("jsonio.dump"):
        return jsonio.arc_to_dict(arc)


def _arc_elements(ctx: Context, text: str):
    """Read an arc document as verify-arc and quadrics through do: from
    the rows, not through the arc constructor, so that a repeated
    element loads and can be refuted."""
    with ctx.tr.span("jsonio.load"):
        doc = jsonio.loads(text)
        tow = jsonio.tower_from_header(doc["field"])
        dim = tow.h * doc["k"]
        return [Subspace(tow.base, dim, [[tow.base(v) for v in row] for row in rows])
                for rows in doc["elements"]]


def run_arc(job: Job, ctx: Context) -> Outcome:
    """construct-arc [--extend] --out FILE, then verify-arc FILE --json.
    A planted defect edits the written document, as a user would."""
    tr = ctx.tr
    h, k, q = job.params
    doc = _construct_arc(ctx, h, k, q, job.extend)
    n = arc_size(h, q, job.extend)
    ok = len(doc["elements"]) == n
    detail = "" if ok else "size %d, expected %d" % (len(doc["elements"]), n)
    if job.plant:
        i, j = job.plant
        doc["elements"][j] = [list(r) for r in doc["elements"][i]]
    text = _dump(tr, doc)
    elements = _arc_elements(ctx, text)
    with tr.span("pseudoarc.verify"):
        verdict = is_pseudo_arc(elements, k)
    report = {"schema_version": jsonio.SCHEMA_VERSION, "command": "verify-arc",
              "elements": len(elements), "k": k, "ok": verdict.ok}
    if not verdict.ok:
        report["witness"] = list(verdict.witness)
    out = text + _dump(tr, report)
    if job.plant:
        expected = planted_witness(job.plant[0], job.plant[1], k)
        subsets = subsets_through(expected, n)
        if verdict.ok or tuple(verdict.witness) != expected:
            ok = False
            detail = "verdict %s, expected witness %s" % (report, expected)
    else:
        subsets = math.comb(n, k)
        if not verdict.ok:
            ok = False
            detail = "construction refuted: %s" % (report,)
    counts = {"pseudoarc.subsets": subsets, "linalg.dets": subsets,
              "nrc.reps": lambda_size(q, h), "jsonio.bytes": len(out)}
    return Outcome(out, subsets, counts, ok, detail)


def run_distance(job: Job, ctx: Context) -> Outcome:
    """code gen --extend --out FILE, then code distance FILE --json.
    A planted defect copies column i over column j in the document."""
    tr = ctx.tr
    h, k, q = job.params
    code = gen_code(ctx, h, k, q, job.extend)
    with tr.span("jsonio.dump"):
        doc = jsonio.code_to_dict(code)
    if job.plant:
        i, j = job.plant
        for row in doc["gen"]:
            row[j] = row[i]
        doc["eval_spec"][j] = dict(doc["eval_spec"][i])
    text = _dump(tr, doc)
    with tr.span("jsonio.load"):
        loaded = jsonio.code_from_dict(jsonio.loads(text))
    with tr.span("codes.min_distance"):
        d = min_distance(loaded)
    with tr.span("codes.is_mds"):
        mds = is_mds(loaded)
    report = {"schema_version": jsonio.SCHEMA_VERSION, "command": "code distance",
              "n": loaded.n, "k": loaded.k_msg, "distance": d,
              "singleton": loaded.n - loaded.k_msg + 1, "mds": mds}
    out = text + _dump(tr, report)
    n = arc_size(h, q, job.extend)
    if job.plant:
        expected = (n, n - k, False)
        dets = subsets_through(tuple(job.plant), n)
    else:
        expected = (n, n - k + 1, True)
        dets = math.comb(n, k)
    ok = (loaded.n, d, mds) == expected
    words = q ** (h * k) - 1
    counts = {"codes.words": words, "linalg.dets": dets,
              "nrc.reps": lambda_size(q, h), "jsonio.bytes": len(out)}
    return Outcome(out, words, counts, ok,
                   "" if ok else "got %s, expected (n, d, mds) = %s"
                   % (report, expected))


def run_fixture(job: Job, ctx: Context) -> Outcome:
    """verify-example --json: the PG(5, 4) family and its (11, 4096, 9)
    code."""
    tr = ctx.tr
    ctx.tower(4, 2)
    with tr.span("pg54.verify_fixture"):
        checks = verify_fixture()
    report = {"schema_version": jsonio.SCHEMA_VERSION, "command": "verify-example",
              "ok": all(c[1] for c in checks),
              "checks": [{"name": name, "ok": good, "detail": detail}
                         for name, good, detail in checks]}
    out = _dump(tr, report)
    by_name = {c[0]: c for c in checks}
    code_check = by_name.get("code-parameters", ("", False, ""))
    ok = report["ok"] and "(11, 4096, 9)" in code_check[2]
    words = 4 ** 6 - 1
    counts = {"codes.words": words, "linalg.dets": 2 * math.comb(11, 3),
              "jsonio.bytes": len(out)}
    return Outcome(out, words, counts, ok, "" if ok else "fixture: %s" % report)


def run_roundtrip(job: Job, ctx: Context) -> Outcome:
    """code encode CODE MESSAGE, erase, code decode CODE WORD.  The
    code documents are read once, in set-up; the message and word files
    go through their text formats."""
    tr = ctx.tr
    code = ctx.code(job.params)
    h, k, q, _ = job.params
    tow = code.tow
    message_text = "".join("%d\n" % c for c in job.message)
    with tr.span("codes.encode"):
        coeffs = [int(ln) for ln in message_text.split()]
        word = encode(Poly.from_ints(tow.base, coeffs), code)
        word_text = "".join("%d\n" % x.val for x in word)
    values = [int(ln) for ln in word_text.split()]
    received = ["E"] * code.n
    for j in job.survivors:
        received[j] = str(values[j])
    if job.change:
        j, offset = job.change
        received[j] = str((values[j] + offset) % tow.top.order)
    received_text = "".join(x + "\n" for x in received)
    refused = None
    with tr.span("codes.decode"):
        parsed = [ERASED if ln == "E" else tow.top(int(ln))
                  for ln in received_text.split()]
        try:
            f = erasure_decode(parsed, code)
            decoded = [f.coefficient(i).val for i in range(h * k)]
            result_text = "".join("%d\n" % c for c in decoded)
        except DecodeError as exc:
            refused = str(exc)
            result_text = "decode failed: %s\n" % exc
    out = word_text + received_text + result_text
    defect = bool(job.change) or len(job.survivors) < k
    if defect:
        ok = refused is not None
        detail = "" if ok else "defective word decoded to %s" % result_text.split()
    else:
        ok = refused is None and decoded == list(job.message)
        detail = "" if ok else "decoded %s, sent %s" % (
            refused or decoded, list(job.message))
    counts = {"codes.refused": 1 if defect else 0, "jsonio.bytes": len(out)}
    return Outcome(out, code.n, counts, ok, detail)


def _curve_subspaces(ctx: Context, k: int, q: int, extra=None):
    fld = ctx.tower(q, 1).base
    subs = [Subspace(fld, k, [list(pt.coords)]) for pt in nrc_points(fld, k)]
    if extra is not None:
        subs.append(Subspace(fld, k, [[fld(v) for v in extra]]))
    return subs


def run_through(job: Job, ctx: Context) -> Outcome:
    """quadrics through FILE --json, on a built arc or a curve."""
    tr = ctx.tr
    if job.target == "arc":
        h, k, q = job.params
        tow = ctx.tower(q, h)
        doc = _construct_arc(ctx, h, k, q, job.extend)
        points = arc_size(h, q, job.extend) * points_of(q, h)
    else:
        k, q = job.params
        tow = ctx.tower(q, 1)
        subs = _curve_subspaces(ctx, k, q)
        with tr.span("jsonio.dump"):
            doc = jsonio.subspaces_to_dict(subs, tow)
        points = q + 1
    text = _dump(tr, doc)
    if job.target == "arc":
        elements = _arc_elements(ctx, text)
    else:
        with tr.span("jsonio.load"):
            elements = jsonio.subspaces_from_dict(jsonio.loads(text))
    with tr.span("quadrics.vanishing"):
        forms = vanishing_space(elements)
    with tr.span("jsonio.dump"):
        out_doc = jsonio.forms_to_dict(forms, tow, level="base",
                                       n=elements[0].ambient_dim)
    out = text + _dump(tr, out_doc)
    got = out_doc["forms"]
    if job.target == "arc":
        expected = []
    else:
        expected = standard_system_rref(k, q)
    ok = got == expected
    counts = {"quadrics.conditions": points, "quadrics.points_scanned": points,
              "jsonio.bytes": len(out)}
    if job.target == "arc":
        counts["nrc.reps"] = lambda_size(q, h)
    return Outcome(out, points, counts, ok,
                   "" if ok else "forms %s, expected %s" % (got, expected))


def _conic_inputs(ctx: Context):
    """The Desarguesian conic: spread elements through the points of
    x0 x2 + 4 x1^2 = 0 in PG(2, 25), with the trace-reduced forms."""
    tow = ctx.tower(CONIC_Q, 1)
    top = tow.top
    spread = block_spread(tow, 3)
    subs = [spread.element_through(pt.coords) for pt in nrc_points(top, 3)]
    conic = QuadraticForm.from_pairs(top, 3, {(0, 2): top.one, (1, 1): top(4)})
    basis = tow.normal_basis()
    forms = [trace_reduce(conic, tow, basis, alpha) for alpha in basis]
    return tow, subs, forms


def run_certify(job: Job, ctx: Context) -> Outcome:
    """quadrics certify-ci SUBSPACES FORMS --json."""
    tr = ctx.tr
    k, q = job.params
    if job.target == "conic":
        tow, subs, forms = _conic_inputs(ctx)
        with tr.span("jsonio.dump"):
            forms_doc = jsonio.forms_to_dict(forms, tow)
        config = CONIC_Q + 1
    else:
        tow = ctx.tower(q, 1)
        subs = _curve_subspaces(ctx, k, q, extra=job.plant or None)
        forms_doc = {"schema_version": jsonio.SCHEMA_VERSION, "kind": "forms",
                     "field": jsonio.field_header(tow), "level": "base",
                     "n": k, "forms": standard_system_rref(k, q)}
        config = q + 1 + (1 if job.plant else 0)
    with tr.span("jsonio.dump"):
        subs_doc = jsonio.subspaces_to_dict(subs, tow)
    subs_text = _dump(tr, subs_doc)
    forms_text = _dump(tr, forms_doc)
    with tr.span("jsonio.load"):
        elements = jsonio.subspaces_from_dict(jsonio.loads(subs_text))
        loaded_forms = jsonio.forms_from_dict(jsonio.loads(forms_text))
    with tr.span("quadrics.certify"):
        verdict = is_complete_intersection(elements, loaded_forms)
    report = {"schema_version": jsonio.SCHEMA_VERSION,
              "command": "quadrics certify-ci", "ok": verdict.ok,
              "extra": None if verdict.extra is None else list(verdict.extra),
              "missed": None if verdict.missed is None else list(verdict.missed)}
    out = subs_text + forms_text + _dump(tr, report)
    if job.plant:
        ok = (not verdict.ok and verdict.missed is not None
              and tuple(verdict.missed) == tuple(job.plant))
        scanned = config
    else:
        ok = verdict.ok
        scanned = config + points_of(q, k)
    counts = {"quadrics.points_scanned": scanned, "jsonio.bytes": len(out)}
    return Outcome(out, scanned, counts, ok,
                   "" if ok else "verdict %s (planted %s)" % (report, job.plant))


_RUNNERS = {"arc": run_arc, "distance": run_distance, "fixture": run_fixture,
            "roundtrip": run_roundtrip, "through": run_through,
            "certify": run_certify}
