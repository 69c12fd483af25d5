import re

import numpy as np
import pytest

from helpers import f1, f2, f21, f_eval, random_density

from cfdens import DistanceSpec, divergence, parse_distance
from cfdens.distances import (
    abs_smooth,
    abs_smooth_d1,
    abs_smooth_d2,
    reduced_factors,
)
from cfdens.errors import DistanceDomainError

ALL_SPECS = [
    DistanceSpec("l2"),
    DistanceSpec("kl"),
    DistanceSpec("chisq"),
    DistanceSpec("hellinger"),
    DistanceSpec("tv", tv_t=50.0),
    DistanceSpec("tv", tv_t=20.0),
]

LATTICE = [(p, q) for p in np.geomspace(0.01, 10.0, 7) for q in np.geomspace(0.01, 10.0, 7)]


def fd_p(spec, p, q, h):
    return (f_eval(spec, p + h, q) - f_eval(spec, p - h, q)) / (2 * h)


def fd_q(spec, p, q, h):
    return (f_eval(spec, p, q + h) - f_eval(spec, p, q - h)) / (2 * h)


def fd_pq(spec, p, q, hp, hq):
    return (f_eval(spec, p + hp, q + hq) - f_eval(spec, p - hp, q + hq)
            - f_eval(spec, p + hp, q - hq) + f_eval(spec, p - hp, q - hq)) / (4 * hp * hq)


class TestDerivativeTable:
    """The reference table of ``helpers`` against hand values and finite differences."""

    def test_l2_point_values(self):
        spec = DistanceSpec("l2")
        assert f_eval(spec, 2.0, 1.0) == pytest.approx(1.0)
        assert f1(spec, 2.0, 1.0) == pytest.approx(2.0)
        assert f2(spec, 2.0, 1.0) == pytest.approx(-3.0)
        # -2p/q^2 at (2,1); the finite-difference cross check below agrees
        assert f21(spec, 2.0, 1.0) == pytest.approx(-4.0)
        assert f21(spec, 2.0, 1.0) == pytest.approx(fd_pq(spec, 2.0, 1.0, 1e-5, 1e-5), rel=1e-5)

    def test_kl_at_equal_arguments(self):
        spec = DistanceSpec("kl")
        assert f_eval(spec, 1.0, 1.0) == pytest.approx(0.0)
        assert f1(spec, 1.0, 1.0) == pytest.approx(1.0)
        assert f2(spec, 1.0, 1.0) == pytest.approx(-1.0)

    def test_hellinger_hand_values(self):
        spec = DistanceSpec("hellinger")
        assert f_eval(spec, 4.0, 1.0) == pytest.approx(1.0)
        assert f1(spec, 4.0, 1.0) == pytest.approx(0.5)
        assert f2(spec, 4.0, 1.0) == pytest.approx(-2.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_finite_difference_consistency(self, spec):
        from helpers import fd_table_check

        fd_table_check(spec, tol=1e-6)


class TestAbsSmooth:
    def test_zero_at_origin(self):
        for t in (1.0, 5.0, 50.0):
            assert abs_smooth(0.0, t) == 0.0

    def test_tanh_saturation(self):
        assert abs(abs_smooth(1.0, 10.0) - 1.0) < 1e-8

    def test_symmetry(self, rng):
        # an absolute-value surrogate is even, with an odd first derivative
        y = rng.uniform(-2, 2, 50)
        assert np.allclose(abs_smooth(-y, 7.0), abs_smooth(y, 7.0))
        assert np.allclose(abs_smooth_d1(-y, 7.0), -abs_smooth_d1(y, 7.0))

    def test_derivatives_match_finite_differences(self, rng):
        y = rng.uniform(-1.5, 1.5, 20)
        t = 8.0
        h = 1e-6
        d1 = (abs_smooth(y + h, t) - abs_smooth(y - h, t)) / (2 * h)
        d2 = (abs_smooth(y + h, t) - 2 * abs_smooth(y, t) + abs_smooth(y - h, t)) / h**2
        assert np.allclose(abs_smooth_d1(y, t), d1, atol=1e-6)
        assert np.allclose(abs_smooth_d2(y, t), d2, atol=1e-3)

    def test_approximation_tightens_with_t(self):
        y = np.linspace(-1, 1, 201)
        errs = [np.max(np.abs(abs_smooth(y, t) - np.abs(y))) for t in (5.0, 10.0, 20.0)]
        assert errs[0] > errs[1] > errs[2]


class TestDivergence:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_identical_densities_give_zero(self, spec, grid):
        u = np.ones(grid.size)
        assert abs(divergence(spec, u, u, grid)) < 1e-10

    def test_l2_cosine_bump(self, grid):
        p = 1.0 + 0.5 * np.sqrt(2) * np.cos(np.pi * grid.points)
        q = np.ones(grid.size)
        assert divergence(DistanceSpec("l2"), p, q, grid) == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("spec", ALL_SPECS[:4], ids=lambda s: s.label)
    def test_nonnegative_on_random_pairs(self, spec, grid, rng):
        for _ in range(10):
            p = np.maximum(1.0 + 0.8 * rng.normal(size=grid.size), 0.0)
            p = p / grid.integrate(p)
            q = np.maximum(1.0 + 0.5 * np.sin(6 * grid.points) + 0.1 * rng.normal(size=grid.size), 0.05)
            q = q / grid.integrate(q)
            assert divergence(spec, p, q, grid) >= -1e-10

    def test_tv_can_dip_only_within_smoothing_slack(self, grid, rng):
        spec = DistanceSpec("tv", tv_t=50.0)
        for _ in range(10):
            p = np.maximum(1.0 + 0.6 * rng.normal(size=grid.size), 0.0)
            p /= grid.integrate(p)
            q = np.ones(grid.size)
            assert divergence(spec, p, q, grid) >= -1.0 / spec.tv_t

    def test_tv_sandwich(self, grid, rng):
        tv = DistanceSpec("tv", tv_t=200.0)
        hell = DistanceSpec("hellinger")
        for _ in range(5):
            p = np.maximum(1.0 + 0.5 * np.sin(4 * np.pi * grid.points) * rng.uniform(0.4, 1.0), 0.05)
            p /= grid.integrate(p)
            q = np.maximum(1.0 + 0.4 * np.cos(2 * np.pi * grid.points) * rng.uniform(0.4, 1.0), 0.05)
            q /= grid.integrate(q)
            tv_val = divergence(tv, p, q, grid)
            h2 = divergence(hell, p, q, grid)
            h = np.sqrt(h2)
            assert h2 / 2 <= tv_val + 1e-3
            assert tv_val <= h + 1e-3

    def test_negative_target_rejected(self, grid):
        p = np.ones(grid.size)
        p[3] = -0.01
        with pytest.raises(DistanceDomainError, match="index 3"):
            divergence(DistanceSpec("kl"), p, np.ones(grid.size), grid)


class TestReducedFactors:
    """D and the per-kind reduced integrand factors match the raw table composition."""

    @pytest.mark.parametrize("kind", ["kl", "chisq", "hellinger"])
    def test_divergence(self, kind, grid, rng):
        # same arithmetic as composing the table, so equal to the last bit
        spec = DistanceSpec(kind)
        p, q = random_density(grid, rng), random_density(grid, rng)
        assert divergence(spec, p, q, grid) == float(grid.integrate(f_eval(spec, p, q) * q))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_moment_factor(self, spec):
        p = np.geomspace(0.05, 3.0, 17)
        q = np.geomspace(0.08, 2.5, 17)
        raw = f_eval(spec, p, q) + q * f2(spec, p, q)
        assert np.allclose(reduced_factors(spec, p, q)[0], raw, atol=1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_effect_factor(self, spec):
        p = np.geomspace(0.05, 3.0, 17)
        q = np.geomspace(0.08, 2.5, 17)
        raw = q * f1(spec, p, q)
        assert np.allclose(reduced_factors(spec, p, q)[1], raw, atol=1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_influence_factor(self, spec):
        p = np.geomspace(0.05, 3.0, 17)
        q = np.geomspace(0.08, 2.5, 17)
        raw = f1(spec, p, q) + q * f21(spec, p, q)
        assert np.allclose(reduced_factors(spec, p, q)[2], raw, atol=1e-10)

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.kind in ("l2", "tv")],
                             ids=lambda s: s.label)
    def test_effect_is_negated_moment_when_only_the_difference_matters(self, spec, rng):
        p = rng.uniform(-0.5, 3.0, 40)   # no floor applies, so a signed p is fine
        q = rng.uniform(-0.5, 3.0, 40)
        moment, effect, _ = reduced_factors(spec, p, q)
        assert np.array_equal(effect, -moment)

    @pytest.mark.parametrize("kind", ["kl", "chisq", "hellinger"])
    @pytest.mark.parametrize("bad", ["negative p", "non-finite q"])
    def test_domain_errors_name_kind_and_index(self, kind, bad):
        p, q = np.ones(9), np.ones(9)
        if bad == "negative p":
            p[5] = -0.01
        else:
            q[5] = np.nan
        with pytest.raises(DistanceDomainError, match=f"^{kind}: {bad} at grid index 5$"):
            reduced_factors(DistanceSpec(kind), p, q)

    @pytest.mark.parametrize("kind", ["kl", "chisq", "hellinger"])
    def test_a_stacked_q_names_the_grid_index_of_its_first_bad_row(self, kind):
        # a (k, G) stack of approximants reports what its first bad row does alone
        p, q = np.ones(9), np.ones((3, 9))
        q[1, 5] = np.nan
        q[2, 2] = np.inf
        errors = []
        for approximant in (q, q[1]):
            with pytest.raises(DistanceDomainError) as info:
                reduced_factors(DistanceSpec(kind), p, approximant)
            errors.append(str(info.value))
        assert errors == [f"{kind}: non-finite q at grid index 5"] * 2


class TestParse:
    def test_round_trip(self):
        assert parse_distance("l2").kind == "l2"
        assert parse_distance("chisq").kind == "chisq"
        spec = parse_distance("tv:t=75")
        assert spec.kind == "tv" and spec.tv_t == 75.0
        assert parse_distance("tv").tv_t == 50.0

    def test_bad_strings(self):
        with pytest.raises(DistanceDomainError):
            parse_distance("wasserstein")
        with pytest.raises(DistanceDomainError):
            parse_distance("tv:q=2")
        with pytest.raises(DistanceDomainError, match="finite"):
            parse_distance("tv:t=inf")
        with pytest.raises(DistanceDomainError, match="kind=erf"):
            parse_distance("tv:kind=erf")

    @pytest.mark.parametrize("text,message", [
        ("tvx", "unknown distance 'tvx'"),
        ("tv2", "unknown distance 'tv2'"),
        ("tvl2", "unknown distance 'tvl2'"),
        ("l2:x", "unknown distance 'l2:x'"),
        ("kl:t=5", "unknown distance 'kl:t=5'"),
        ("tv:", "unknown tv option ''"),
        ("tv:t=5,t=7", "tv option t='5,t=7' is not a number"),
        ("tv:t=abc", "tv option t='abc' is not a number"),
    ])
    def test_one_grammar_name_colon_key_value(self, text, message):
        # a kind is one of the five names exactly; only tv takes one t=<number>
        with pytest.raises(DistanceDomainError, match=f"^{re.escape(message)}$"):
            parse_distance(text)

    @pytest.mark.parametrize("text,label", [
        ("l2", "l2"), ("kl", "kl"), ("chisq", "chisq"), ("hellinger", "hellinger"),
        ("tv", "tv:t=50"), ("tv:t=75", "tv:t=75"), (" TV:T=0.5 ", "tv:t=0.5")])
    def test_every_kind_parses(self, text, label):
        assert parse_distance(text).label == label

    def test_unknown_kind_in_the_spec(self):
        with pytest.raises(DistanceDomainError, match="^unknown distance kind 'x'$"):
            DistanceSpec("x")
