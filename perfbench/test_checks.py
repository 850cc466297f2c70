"""The benchmark's checkers accept right answers and reject wrong ones.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
from fractions import Fraction
from itertools import combinations
from random import Random

import checks
import corpus

# Apex 0 at the origin; 1 and 2 bound the other points from right and left.
POINTS = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(1)),
          (Fraction(-2), Fraction(1)), (Fraction(0), Fraction(2)),
          (Fraction(1, 2), Fraction(3))]
VALUES = [Fraction(3), Fraction(2), Fraction(1)]
ENTRIES = [(0, 1, 2), (1, 2, 2)]


def test_bounding_accepts_the_angle_and_rejects_swapped_rays():
    assert checks.bounding_error(POINTS, 0, 1, 2) is None
    assert checks.bounding_error(POINTS, 0, 2, 1) is not None
    assert checks.bounding_error(POINTS, 3, 1, 2) is not None
    assert checks.bounding_error(POINTS, 0, 1, 1) is not None
    assert checks.bounding_error(POINTS, 0, 1, 9) is not None


def test_convex_rejects_a_different_certificate_or_too_many_restarts():
    assert checks.convex_error(POINTS, 0, 1, 2, 3, "cert", "cert") is None
    assert checks.convex_error(POINTS, 0, 1, 2, 3, "cert", "other") is not None
    assert checks.convex_error(POINTS, 0, 1, 2, 16, "cert", "cert") is not None
    assert checks.convex_error(POINTS, 0, 2, 1, 0, "cert", "cert") is not None


def test_least_rejects_wrong_argmin_restarts_and_unseparated_entries():
    assert checks.least_error(VALUES, 2, 2, ENTRIES) is None
    assert checks.least_error(VALUES, 1, 2, ENTRIES) is not None
    assert checks.least_error(VALUES, 2, 1, ENTRIES[:1]) is not None
    assert checks.least_error(VALUES, 2, 2, ENTRIES[:1]) is not None
    # Limits 1 apart are not separated by intervals of width 2^-0.
    assert checks.least_error(VALUES, 2, 2, [(0, 1, 0), (1, 2, 2)]) is not None
    assert checks.least_error(VALUES, 2, 2, [(1, 0, 2), (1, 2, 2)]) is not None


def _convex_stdout(a, b, c, restarts=1):
    state = json.dumps([{"i": 3, "j": 0, "witness": 0}] * restarts)
    return (f"apex: {a}\nrays: {b} {c}\nrestarts: {restarts}\n"
            f"max-witness: 0\nstate: {state}\n")


def test_cli_convex_rejects_wrong_rays_exit_code_and_result_file():
    result = {"a": 0, "b": 1, "c": 2}
    good = _convex_stdout(0, 1, 2)
    assert checks.cli_convex_error(POINTS, 0, good, result) is None
    assert checks.cli_convex_error(POINTS, 1, good, result) is not None
    assert checks.cli_convex_error(POINTS, 0, _convex_stdout(0, 2, 1),
                                   {"a": 0, "b": 2, "c": 1}) is not None
    assert checks.cli_convex_error(POINTS, 0, good, {"a": 0, "b": 2, "c": 1}) is not None
    assert checks.cli_convex_error(POINTS, 0, "apex: 0\n", result) is not None


def test_cli_check_least_degenerate_and_tree():
    ok = "ok: apex 0, rays 1 2, 2 bounded points re-verified\n"
    assert checks.cli_check_error(0, ok, (0, 1, 2), 5) is None
    assert checks.cli_check_error(0, ok, (0, 2, 1), 5) is not None
    assert checks.cli_check_error(4, ok, (0, 1, 2), 5) is not None

    state = json.dumps([{"i": i, "j": j, "witness": w} for i, j, w in ENTRIES])
    least = f"candidate: 2\nrestarts: 2\nstate: {state}\n"
    assert checks.cli_least_error(VALUES, 0, least) is None
    assert checks.cli_least_error(VALUES, 0, least.replace("candidate: 2",
                                                           "candidate: 0")) is not None
    assert checks.cli_least_error(VALUES, 2, least) is not None

    said = "degenerate input: no side witness\n"
    assert checks.cli_degenerate_error(3, said) is None
    assert checks.cli_degenerate_error(0, said) is not None
    assert checks.cli_degenerate_error(3, "Traceback (most recent call last):") is not None

    tree = "n: 4\nrun: t\n  restarts: 1\n  progress: ok\n  unique: ok\n  bound: ok\n"
    assert checks.cli_tree_error(tree, 1) is None
    assert checks.cli_tree_error(tree, 2) is not None
    assert checks.cli_tree_error(tree.replace("unique: ok", "unique: VIOLATED"),
                                 1) is not None


def test_corpus_is_seeded_and_shaped_as_documented():
    a = corpus.general_position(Random(5), 8, scale_bits=60)
    assert a == corpus.general_position(Random(5), 8, scale_bits=60)
    assert len({y for _, y in a}) == 8
    assert all(checks.orientation(p, q, r) != 0 for p, q, r in combinations(a, 3))
    assert all(x.denominator <= 2 ** 72 for x, _ in a)

    line = corpus.collinear(Random(5), 6)
    assert all(checks.orientation(p, q, r) == 0 for p, q, r in combinations(line, 3))
    assert len(set(line)) == 6

    values = corpus.descending(Random(5), 10)
    assert len(values) == 11 and values == sorted(set(values), reverse=True)


def test_seed_moves_the_shapes_without_changing_them():
    shape = corpus.general_position(Random(corpus.BASE_SEED), 8, scale_bits=60)
    for seed in (1, 2):
        moved = corpus.shift_points(Random(seed), shape, scale_bits=60)
        assert moved != shape
        assert all(x.denominator <= 2 ** 72 and abs(x) <= Fraction(2 ** 20, 2 ** 72)
                   for point in moved for x in point)
        for i, j, k in combinations(range(8), 3):
            assert checks.orientation(moved[i], moved[j], moved[k]) == \
                checks.orientation(shape[i], shape[j], shape[k])
    values = corpus.descending(Random(corpus.BASE_SEED), 10)
    moved = corpus.shift_values(Random(1), values)
    assert [a - b for a, b in zip(moved, moved[1:])] == \
        [a - b for a, b in zip(values, values[1:])]
    assert all(abs(v) <= 2 ** 20 / 2 ** 12 for v in moved)
