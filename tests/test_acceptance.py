"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single "[acceptance] <criterion>: PASS|FAIL" line (run
with -s to see them inline); the numbers and oracles are independent of the
code paths they certify wherever the criterion calls for it.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from gqlab import catalog, cli
from gqlab.action import build_complementary, verify_theorem_1, verify_theorem_2
from gqlab.bohr import bs_census, lattice_count
from gqlab.cech import (
    TransversalGrid,
    cohomology_ranks,
    delta,
    half_offset_grid,
    half_offset_labels,
    phi,
    psi,
    res,
)
from gqlab.prequantum import refine, split_boxes

from cells import grid_cell

TWO_PI = 2.0 * math.pi

BUILTIN_COVERS = [
    ("plane", {}),
    ("cylinder", {}),
    ("torus", {"k": 1}),
    ("sphere", {"k": 1}),
    ("disk", {}),
]


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")

        return run

    return wrap


def _grid_for(exm, n):
    pol = exm.polarization()
    labels = half_offset_labels(pol.label_range[0], pol.label_range[1], n)
    return TransversalGrid.build(exm.cover, pol, labels)


@criterion("bs-counts-torus")
def test_bs_counts_torus(models):
    for k in range(1, 6):
        start = time.perf_counter()
        exm = models("torus", k=k)
        report = bs_census(exm.cover, exm.polarization(), (0.0, TWO_PI), 24)
        elapsed = time.perf_counter() - start
        assert report.q_bs == k
        # closed-form oracle: the action along the leaf at label c is k c,
        # so BS labels are exactly 2 pi m / k
        expected = sorted(TWO_PI * m / k for m in range(k))
        got = sorted(report.bs_locations)
        assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-8
        assert elapsed < 5.0, f"torus k={k} took {elapsed:.2f}s"


@criterion("bs-counts-cylinder")
def test_bs_counts_cylinder(models):
    for n in (1, 2, 3):
        exm = models("cylinder", p_max=n + 1.5)
        report = bs_census(
            exm.cover, exm.polarization(), (-n - 0.5, n + 0.5), 4 * n + 5
        )
        assert report.q_bs == 2 * n + 1
        # oracle: the loop integral of p dx at height p is 2 pi p
        locs = np.array(sorted(report.bs_locations))
        assert np.allclose(locs, np.arange(-n, n + 1), atol=1e-8)
        assert np.max(np.abs(locs - np.round(locs))) < 1e-8


@criterion("toric-cross-check-sphere")
def test_toric_cross_check_sphere(models):
    for k in range(1, 6):
        exm = models("sphere", k=k)
        report = bs_census(
            exm.cover, exm.polarization(), exm.census_range, 4 * k + 9
        )
        assert report.q_bs_smooth == lattice_count(1e-6, k - 1e-6) == k - 1
        assert report.q_bs_singular == 2
        assert report.q_bs == lattice_count(0.0, float(k)) == k + 1


@criterion("delta-squared-zero")
def test_delta_squared_vanishes_on_all_builtin_covers(models):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for name, params in BUILTIN_COVERS:
        grid = _grid_for(models(name, **params), 12)
        for degree in (0, 1):
            if degree + 2 > grid.nerve.max_degree:
                continue
            n = int(grid.degrees[degree].starts[-1])
            for _ in range(100):
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                dd = delta(grid, degree + 1, delta(grid, degree, v))
                size = np.max(np.abs(v), initial=0.0)
                assert np.max(np.abs(dd), initial=0.0) < 1e-10 * (1.0 + size)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion("psi-phi-isomorphism")
def test_psi_phi_round_trip(models):
    rng = np.random.default_rng(9)
    for name, params in BUILTIN_COVERS:
        grid = _grid_for(models(name, **params), 12)
        for degree in range(0, 4):
            keys = [
                key
                for key in grid.degree_keys(degree)
                if grid_cell(grid, key).count > 0
            ]
            if not keys:
                continue
            for _ in range(100):
                key = keys[rng.integers(len(keys))]
                L = grid_cell(grid, key).count
                g = rng.normal(size=L) + 1j * rng.normal(size=L)
                tup = psi(grid, key, g)
                assert np.max(np.abs(phi(grid, key, tup) - g)) < 1e-12
                back = psi(grid, key, phi(grid, key, tup))
                assert np.max(np.abs(back - tup)) < 1e-12


@criterion("res-laws")
def test_res_laws(models):
    rng = np.random.default_rng(10)
    grid = _grid_for(models("torus", k=2), 16)
    # identity on image tuples
    count = 0
    for key in grid.degree_keys(1):
        L = grid_cell(grid, key).count
        if L == 0:
            continue
        tup = psi(grid, key, rng.normal(size=L) + 1j * rng.normal(size=L))
        assert np.max(np.abs(res(grid, key, key, tup) - tup)) < 1e-12
        count += 1
    assert count > 10
    # composition over random triples
    checked = 0
    for key in grid.degree_keys(2):
        if grid_cell(grid, key).count == 0:
            continue
        a, b, _ = key[0]
        sub_key, _ = grid.sub_cell_for(key, (a,))
        mid_key, _ = grid.sub_cell_for(key, (a, b))
        L = grid_cell(grid, sub_key).count
        tup = psi(grid, sub_key, rng.normal(size=L) + 1j * rng.normal(size=L))
        direct = res(grid, sub_key, key, tup)
        via = res(grid, mid_key, key, res(grid, sub_key, mid_key, tup))
        assert np.max(np.abs(direct - via)) < 1e-10
        checked += 1
    assert checked > 10


@criterion("untwisted-degeneration")
def test_untwisted_degeneration(models):
    exm = models("circle-flat")
    n = 6
    report = cohomology_ranks(half_offset_grid(exm.cover, exm.polarization(), n))
    # classical oracle: the circle nerve has two vertices and two edges;
    # its coboundary [[-1, 1], [-1, 1]] has rank 1, so H0 = H1 = 1 per leaf
    classical = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    rank = np.linalg.matrix_rank(classical)
    h0 = 2 - rank
    h1 = 2 - rank
    assert (h0, h1) == (1, 1)
    assert report.n_labels_retained == n
    assert report.degrees[0].betti == h0 * n
    assert report.degrees[1].betti == h1 * n
    assert report.degrees[0].betti_per_leaf == float(h0)
    assert report.degrees[1].betti_per_leaf == float(h1)


@criterion("main-theorem-1-desk-scale")
def test_main_theorem_1_plane_shear(models):
    exm = models("plane")
    phi_map = catalog.make_map(exm, "shear")
    pol = exm.polarization()
    report = verify_theorem_1(
        build_complementary(phi_map, exm), pol, grid_n=32, threshold=1e-8
    )
    assert report.status == "ok" and report.passed
    assert report.payload["ranks"]["source"] == report.payload["ranks"]["target"]
    assert report.payload["commutation_residual"] < 1e-9
    # same criterion on the two-element cover, where transitions are real
    exm2 = models("plane", granularity=2)
    comp2 = build_complementary(catalog.make_map(exm2, "shear"), exm2)
    report2 = verify_theorem_1(comp2, exm2.polarization(), grid_n=32)
    assert report2.passed
    assert report2.payload["commutation_residual"] < 1e-9


@criterion("main-theorem-2-desk-scale")
def test_main_theorem_2_sphere_rotations(models):
    for k in range(1, 6):
        start = time.perf_counter()
        exm = models("sphere", k=k)
        comp = build_complementary(catalog.make_map(exm, "rot:1.0"), exm)
        report = verify_theorem_2(comp, exm.polarization(), exm.census_range)
        elapsed = time.perf_counter() - start
        assert report.status == "ok" and report.passed
        assert report.payload["q_bs"]["source"] == report.payload["q_bs"]["target"]
        assert report.payload["holonomy_max_difference"] < 1e-9
        assert elapsed < 10.0, f"sphere k={k} took {elapsed:.2f}s"
    # an irrational rotation angle exercises the same bijection
    exm = models("sphere", k=3)
    comp = build_complementary(catalog.make_map(exm, f"rot:{math.sqrt(2)}"), exm)
    report = verify_theorem_2(comp, exm.polarization(), exm.census_range)
    assert report.passed


@criterion("obstruction-dichotomy")
def test_obstruction_dichotomy_via_cli(capsys):
    for spec_map in ("translate:0.7,0", f"translate:{math.pi:.17g},0"):
        code = cli.main(
            ["act", "--example", "torus", "--k", "2", "--map", spec_map,
             "--verify", "thm1", "--json"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)  # never an internal invariant violation
        report = json.loads(out)
        status = report["payload"]["status"]
        assert status in ("ok", "hypothesis-failed")
        if status == "hypothesis-failed":
            witness = report["payload"]["thm1"]["witness"]
            product = complex(*witness["cycle_product"])
            assert abs(product - 1.0) > 1e-6
        else:
            assert report["payload"]["thm1"]["pass"]


@criterion("rank-stability")
def test_rank_stability(models):
    for name, params in (("plane", {}), ("torus", {"k": 2})):
        exm = models(name, **params)
        pol = exm.polarization()
        base = cohomology_ranks(half_offset_grid(exm.cover, pol, 32))
        doubled = cohomology_ranks(half_offset_grid(exm.cover, pol, 64))
        fine, _ = refine(exm.cover, split_boxes(exm.cover))
        refined = cohomology_ranks(half_offset_grid(fine, pol, 32))
        for b, d, r in zip(base.degrees, doubled.degrees, refined.degrees):
            assert b.betti_per_leaf == d.betti_per_leaf == r.betti_per_leaf
            assert b.betti == r.betti  # identical label grid


@criterion("determinism")
def test_fixed_seed_reports_are_byte_identical(capsys):
    def run(argv):
        code = cli.main(argv)
        report = json.loads(capsys.readouterr().out)
        report.pop("timing")
        return json.dumps(report, sort_keys=True).encode()

    for argv in (
        # only act reads a seed; bs and cohomology refuse --seed
        ["bs", "--example", "torus", "--k", "3", "--json"],
        ["cohomology", "--example", "plane", "--grid", "16", "--json"],
        ["act", "--example", "sphere", "--k", "2", "--map", "rot:0.5",
         "--seed", "5", "--json"],
    ):
        assert run(list(argv)) == run(list(argv))
