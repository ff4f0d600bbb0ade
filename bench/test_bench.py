"""Self-tests of the benchmark's own rules: the planted-witness rule,
the tail-percentile rule, the work-unit counts, seeded plans and span
self times.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import itertools
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import jobs  # noqa: E402
from run import nearest_rank, tail_percentile, TAIL_LADDER  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402

from pseudoarcs.gf import tower  # noqa: E402
from pseudoarcs.pseudoarc import build_imaginary_arc, is_pseudo_arc  # noqa: E402


def _rank_mod(rows, p):
    return len(jobs._rref_mod(rows, p))


def _first_failure(elements, k, p):
    """Brute force over k-subsets in lexicographic order, with integer
    arithmetic mod the prime p."""
    for count, subset in enumerate(itertools.combinations(range(len(elements)), k), 1):
        rows = [r for i in subset for r in elements[i]]
        if _rank_mod(rows, p) < len(rows):
            return subset, count
    return None, None


def _planted(arc, i, j):
    rows = [[[x.val for x in r] for r in el.rows] for el in arc.elements]
    rows[j] = rows[i]
    return rows


def test_planted_witness_matches_brute_force_and_the_verifier():
    cases = [((2, 2, 5), pair) for pair in itertools.combinations(range(10), 2)]
    rng = random.Random(7)
    for _ in range(8):
        i, j = sorted(rng.sample(range(21), 2))
        cases.append(((2, 3, 7), (i, j)))
    for (h, k, q), (i, j) in cases:
        arc = build_imaginary_arc(tower(q, 1, h), k)
        planted = _planted(arc, i, j)
        witness, count = _first_failure(planted, k, q)
        expected = jobs.planted_witness(i, j, k)
        assert witness == expected, ((h, k, q), i, j)
        assert jobs.subsets_through(expected, len(planted)) == count
        elements = list(arc.elements)
        elements[j] = elements[i]
        assert is_pseudo_arc(elements, k).witness == expected


def test_subsets_through_is_the_lexicographic_position():
    for n, k in [(6, 2), (7, 3), (8, 4)]:
        for pos, subset in enumerate(itertools.combinations(range(n), k), 1):
            assert jobs.subsets_through(subset, n) == pos


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(40) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(10000) == 99.9
    for n in range(20, 3000):
        p = tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10, n
        higher = [r for r in TAIL_LADDER if r > p]
        if higher:
            assert n - math.ceil(higher[0] * n / 100) < 10, n
    values = list(range(1, 101))
    assert nearest_rank(values, 90) == 90
    assert sum(1 for v in values if v > nearest_rank(values, 90)) == 10


def test_work_units_match_hand_counts():
    ctx = jobs.Context(NullTracer())
    cases = [
        (jobs.Job("arc", (2, 2, 7)), 210),                       # C(21, 2)
        (jobs.Job("arc", (2, 2, 7), plant=(0, 5)), 5),           # (0,1)..(0,5)
        (jobs.Job("distance", (2, 2, 5), extend=True), 624),     # 5^4 - 1
        (jobs.Job("roundtrip", (2, 2, 5, True), message=(1, 0, 2, 3),
                  survivors=(1, 4, 15)), 16),                    # n = 10 + 6
        (jobs.Job("certify", (4, 11), target="curve"), 1476),    # 12 + 1464
        (jobs.Job("through", (3, 7), target="curve"), 8),        # q + 1
        (jobs.Job("through", (2, 2, 5), target="arc"), 60),      # 10 lines x 6
    ]
    for job, work in cases:
        outcome = jobs.run_job(job, ctx)
        assert outcome.ok, (job, outcome.detail)
        assert outcome.work == work, job


def test_defective_inputs_are_refuted():
    ctx = jobs.Context(NullTracer())
    rng = random.Random(3)
    for job in [
        jobs.Job("distance", (2, 2, 5), extend=True, plant=(2, 9)),
        jobs.Job("roundtrip", (2, 2, 5, True), message=(1, 2, 3, 4),
                 survivors=(0, 3, 8), change=(3, 5)),
        jobs.Job("roundtrip", (2, 2, 5, True), message=(1, 2, 3, 4),
                 survivors=(6,)),
        jobs.Job("certify", (4, 7), target="curve",
                 plant=jobs.off_curve_point(4, 7, rng)),
    ]:
        outcome = jobs.run_job(job, ctx)
        assert outcome.ok, (job, outcome.detail)


def test_plans_repeat_for_a_seed_and_keep_the_grid():
    for workload in ("arcs", "distance", "roundtrip", "quadrics"):
        a = jobs.plan_cycle(workload, random.Random(5))
        b = jobs.plan_cycle(workload, random.Random(5))
        c = jobs.plan_cycle(workload, random.Random(6))
        assert a == b
        assert a != c
        key = lambda job: (job.kind, job.params, job.extend, job.target)
        clean = lambda plan: sorted(key(j) for j in plan if not j.plant)
        if workload == "arcs":
            assert clean(a) == clean(c)


def test_self_times_subtract_direct_children():
    spans = [["job", 0.0, 10.0, -1, "c0.0"],
             ["pseudoarc.verify", 1.0, 7.0, 0, "c0.0"],
             ["linalg", 2.0, 3.0, 1, "c0.0"],
             ["jsonio.dump", 8.0, 9.0, 0, "c0.0"]]
    st = self_times(spans, {"c0.0": 1.0})
    assert st["job"] == (3.0, 1)
    assert st["pseudoarc.verify"] == (5.0, 1)
    assert st["jsonio.dump"] == (1.0, 1)
    tr = Tracer()
    tr.job = "x"
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert [s[0] for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == "x"
