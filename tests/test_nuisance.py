import numpy as np
import pytest

from helpers import (dense_kernel, dense_operator, kernel_outcome_reference, predict_reference,
                     softmax_first_pinned_reference, weight_blocks_reference,
                     weighted_kernel_rows)

from cfdens import NuisanceConfig, cross_fit, fit_cond_density, from_raw, make_folds, make_grid
from cfdens import nuisance
from cfdens.data import MISSING_LEVEL, ObservationTable
from cfdens.errors import DataError, InsufficientDataError
from cfdens.nuisance import (
    _BLOCK,
    _STENCIL,
    CondDensityModel,
    FactoredEta,
    _fit_multinomial_logistic,
    _lagrange_weights,
    _outcome_operator,
    _softmax_first_pinned,
    fold_stream,
    fit_propensity_all,
    floor_probs,
    silverman_bandwidth,
    single_split,
    tabulate_nuisances,
)
from cfdens.oracle import get_dgp


def uniform_table(n, rng, p_treat=0.5):
    x = rng.uniform(size=(n, 2))
    a = (rng.uniform(size=n) < p_treat).astype(int)
    y = rng.uniform(size=n)
    return ObservationTable(x, a, y, (0.0, 1.0))


class TestFloorProbs:
    def test_floor_and_simplex(self, rng):
        probs = rng.dirichlet(np.ones(3) * 0.3, size=200)
        out = floor_probs(probs, 0.01)
        assert out.min() >= 0.01 - 1e-15
        assert out.max() <= 1 - 2 * 0.01 + 1e-12
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_interior_rows_unchanged(self):
        probs = np.array([[0.4, 0.6], [0.25, 0.75]])
        assert np.allclose(floor_probs(probs, 0.01), probs)

    def test_raw_below_floor_clipped(self):
        out = floor_probs(np.array([[0.001, 0.999]]), 0.01)
        assert out[0, 0] == pytest.approx(0.01)
        assert out[0, 1] == pytest.approx(0.99)

    def test_infeasible_eps(self):
        with pytest.raises(DataError):
            floor_probs(np.ones((1, 3)) / 3, 0.5)


class TestPropensity:
    def test_randomized_design_near_half(self, rng):
        table = uniform_table(2000, rng)
        model = fit_propensity_all(table, method="logistic")
        test_x = rng.uniform(size=(200, 2))
        preds = model.predict(test_x)[:, model.levels.index(1)]
        assert preds.min() > 0.45 and preds.max() < 0.55

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("levels", range(2, 10))
    def test_level_probabilities_match_the_axis_max_reference(self, levels, scale):
        rng = np.random.default_rng(100 * levels + int(10 * scale))
        z = np.column_stack([np.ones(3000), rng.uniform(size=(3000, 2))])
        coef = scale * rng.normal(size=(levels - 1, 3))
        probs = _softmax_first_pinned(z, coef)
        assert probs.shape == (3000, levels)
        assert np.array_equal(probs, softmax_first_pinned_reference(z, coef))

    def test_knn_randomized(self, rng):
        table = uniform_table(4000, rng)
        model = fit_propensity_all(table, method="knn")
        preds = model.predict(rng.uniform(0.2, 0.8, size=(100, 2)))[:, model.levels.index(1)]
        assert preds.min() > 0.35 and preds.max() < 0.65

    def test_knn_blocks_match_a_single_block_neighbour_mean(self):
        # 2000 training rows: the search runs in blocks of 65536 // 2000 = 32
        # rows; the reference takes every eval row's neighbours at once, from
        # the plain squared differences
        table = get_dgp("confounded_shift").sample(2500, np.random.default_rng(5))
        train = table.rows(np.arange(2000))
        model = fit_propensity_all(train, method="knn")
        xt = (train.x - train.x.mean(axis=0)) / train.x.std(axis=0)
        xn = (table.x[2000:] - train.x.mean(axis=0)) / train.x.std(axis=0)
        d2 = ((xn[:, None, :] - xt[None, :, :]) ** 2).sum(axis=2)
        k = int(np.ceil(2000 ** (2.0 / 3.0)))
        nbr = np.argsort(d2, axis=1)[:, :k]
        onehot = np.stack([train.a == lev for lev in model.levels], axis=1)
        want = floor_probs(onehot[nbr].mean(axis=1), model.clip_eps)
        assert nuisance._block_rows(2000) == 32
        assert np.array_equal(model.predict(table.x[2000:]), want)

    def test_separation_degrades_with_warning(self, rng):
        x = rng.uniform(size=(300, 1))
        a = (x[:, 0] > 0.5).astype(int)
        table = ObservationTable(x, a, rng.uniform(size=300), (0.0, 1.0))
        model = fit_propensity_all(table, method="logistic", clip_eps=0.01)
        assert model.warn
        preds = model.predict(np.array([[0.05], [0.95]]))
        assert preds[0, 1] == pytest.approx(0.01)
        assert preds[1, 1] == pytest.approx(0.99)

    def test_clipping_exact_floor(self, rng):
        table = uniform_table(500, rng, p_treat=0.5)
        model = fit_propensity_all(table, clip_eps=0.05)
        preds = model.predict(rng.uniform(size=(300, 2)))
        assert preds.min() >= 0.05

    def test_missing_level_rejected(self, rng):
        x = rng.uniform(size=(50, 1))
        table = ObservationTable(x, np.ones(50, dtype=int), rng.uniform(size=50), (0.0, 1.0))
        with pytest.raises(DataError):
            fit_propensity_all(table)

    def test_three_levels_sum_to_one(self, rng):
        n = 900
        x = rng.uniform(size=(n, 2))
        a = rng.integers(-1, 2, size=n)
        table = ObservationTable(x, a, rng.uniform(size=n), (0.0, 1.0))
        model = fit_propensity_all(table)
        preds = model.predict(rng.uniform(size=(100, 2)))
        assert preds.shape == (100, 3)
        assert np.allclose(preds.sum(axis=1), 1.0, atol=1e-8)


class TestSilverman:
    def test_matches_direct_formula_on_fixture(self):
        y = np.array([0.05, 0.1, 0.2, 0.3, 0.35, 0.5, 0.6, 0.7, 0.85, 0.9])
        m = len(y)
        sd = np.std(y, ddof=1)
        iqr = np.percentile(y, 75) - np.percentile(y, 25)
        expected = 0.9 * min(sd, iqr / 1.34) * m ** (-0.2)
        assert silverman_bandwidth(y) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_sample_gets_floor(self):
        assert silverman_bandwidth(np.full(30, 0.4)) >= 1e-3


def training_outcomes(table, level, regressor):
    """The level's training covariates and outcomes in the order a fitted
    model holds them (Nadaraya-Watson rows sorted by their first covariate)."""
    x, y = table.x[table.a == level], table.y[table.a == level]
    if regressor == "nadaraya_watson":
        order = np.argsort(x[:, 0], kind="stable")
        x, y = x[order], y[order]
    return x, y


def switch_bandwidth(y, cells):
    """The bandwidth at which the outcome lattice of y has ``cells`` cells,
    so cells + 8 nodes: 16 range(y) / h lands half a cell below ``cells``."""
    return 16.0 * (y.max() - y.min()) / (cells - 0.5)


class TestOutcomeKernel:
    @pytest.mark.parametrize("seed", range(5))
    def test_lagrange_weights_sum_to_one_and_reproduce_degree_seven(self, seed):
        # sum_j w_j b_j^p = f^p for the stencil offsets b_j and p = 0..7: the
        # interpolant is exact on every polynomial of degree up to 7, and not on
        # degree 8; f = 0 picks the cell's left node alone
        frac = np.random.default_rng(seed).uniform(size=1000)
        frac[:2] = [0.0, 0.5]
        w = _lagrange_weights(frac)
        assert w.shape == (1000, 8)
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)
        for p in range(8):
            scale = np.abs(w) @ np.abs(_STENCIL.astype(float)) ** p
            assert np.all(np.abs(w @ _STENCIL.astype(float) ** p - frac**p) <= 1e-14 * scale)
        assert not np.allclose(w @ _STENCIL.astype(float) ** 8, frac**8, rtol=1e-3)
        assert np.array_equal(w[0], (_STENCIL == 0).astype(float))

    @pytest.mark.parametrize("rule", ["trapezoid", "gauss_legendre"])
    @pytest.mark.parametrize("size", [64, 509, 512])
    @pytest.mark.parametrize("h", [1e-6, 1e-3, 0.005])
    def test_nodes_are_the_outcomes_where_the_lattice_is_as_large(self, rule, size, h):
        # m = 1000 outcomes, and the lattice at these h has more nodes than
        # that: B Phi is the exact kernel, bit for bit. y hits both ends and
        # the middle; the U-shaped y puts many outcomes next to each end, where
        # the reflections matter, and h = 1e-6 leaves each term only a few
        # grid points within reach
        m = 1000
        rng = np.random.default_rng(size)
        points = make_grid(size, rule).points
        for y in (rng.uniform(size=m), rng.beta(0.3, 0.3, size=m)):
            y[[0, 411, m - 1]] = [0.0, 0.5, 1.0]
            cell, weights, phi = _outcome_operator(y, points, h)
            phi = dense_kernel(phi, size)
            assert phi.shape == (m, size) and np.array_equal(weights, np.ones((m, 1)))
            assert np.array_equal(phi[cell], kernel_outcome_reference(y, points, h))

    @pytest.mark.parametrize("rule", ["trapezoid", "gauss_legendre"])
    @pytest.mark.parametrize("h", [0.02, 0.041, 0.07, 0.3, 2.0])
    def test_lattice_kernel_within_1e9_of_the_peak(self, rule, h):
        # 3000 outcomes: at these h the lattice has fewer nodes, and every
        # entry of B Phi lies within 1e-9 of the exact kernel's peak
        m = 3000
        rng = np.random.default_rng(int(100 * h))
        points = make_grid(512, rule).points
        for y in (rng.uniform(size=m), rng.beta(0.3, 0.3, size=m)):
            y[[0, 411, m - 1]] = [0.0, 0.5, 1.0]
            cell, weights, phi = _outcome_operator(y, points, h)
            phi = dense_kernel(phi, len(points))
            assert weights.shape == (m, 8) and len(phi) < m
            exact = kernel_outcome_reference(y, points, h)
            dense = np.einsum("iw,iwg->ig", weights, phi[cell[:, None] + np.arange(8)])
            assert np.abs(dense - exact).max() <= 1e-9 * exact.max()

    @pytest.mark.parametrize("h, evaluated, stored", [(0.001, 0.12, 0.12), (0.003, 0.28, 0.27),
                                                      (0.01, 0.86, 0.69)])
    def test_kernel_entries_evaluated_and_stored(self, h, evaluated, stored, grid,
                                                 monkeypatch):
        # the exp entries _outcome_kernel evaluates and the entries Phi keeps,
        # per S G: all three terms everywhere would be 3, and a dense Phi 1.
        # Within _TAIL h of each block's centres they are 0.116 and 0.114 at
        # h = 0.001 and 0.270 and 0.264 at h = 0.003 (S = m, the outcomes),
        # 0.852 and 0.684 at h = 0.01 (the lattice of 1508 nodes)
        y = np.random.default_rng(5).beta(2.0, 3.0, size=2845)
        count = [0]
        exp = np.exp

        def counting(z, out=None):
            count[0] += z.size
            return exp(z, out=out)

        monkeypatch.setattr(nuisance.np, "exp", counting)
        _, _, phi = _outcome_operator(y, grid.points, h)
        size = phi[-1][0].stop * grid.size
        assert 0 < count[0] < evaluated * size
        assert sum(block.size for _, _, block in phi) < stored * size

    def test_the_switch_is_at_m_nodes(self, rng, grid128):
        # at cells = m - 8 the lattice has m nodes, and the nodes are the
        # outcomes; one cell fewer and it is the lattice of m - 1 nodes
        y = rng.uniform(size=300)
        for cells, width, nodes in ((292, 1, 300), (291, 8, 299)):
            h = switch_bandwidth(y, cells)
            cell, weights, phi = _outcome_operator(y, grid128.points, h)
            assert weights.shape == (300, width) and phi[-1][0].stop == nodes
            if width == 8:
                assert cell.min() == 0 and cell.max() == cells - 1

    def test_the_last_stencil_ends_at_the_last_node(self, grid128):
        # y spans [0, 1] and h = 1/4: range(y) is 64 steps exactly, so the
        # largest outcome sits on node 64 + 3 with fraction 0, and its stencil
        # ends at the lattice's last node
        y = np.linspace(0.0, 1.0, 100)
        cell, weights, phi = _outcome_operator(y, grid128.points, 0.25)
        phi = dense_kernel(phi, grid128.size)
        assert len(phi) == 72 and cell.max() == 64
        assert np.array_equal(weights[-1], (_STENCIL == 0).astype(float))
        exact = kernel_outcome_reference(y, grid128.points, 0.25)
        dense = np.einsum("iw,iwg->ig", weights, phi[cell[:, None] + np.arange(8)])
        assert np.abs(dense - exact).max() <= 1e-9 * exact.max()

    def test_nadaraya_watson_rows_must_be_sorted(self, rng, grid128):
        # Nadaraya-Watson rows come sorted by their first covariate, as
        # fit_cond_density sorts them; unsorted ones are rejected
        table = uniform_table(200, rng)
        x, y = training_outcomes(table, 1, "nadaraya_watson")
        CondDensityModel(1, x, y, grid128.points, "nadaraya_watson", 0.05)
        with pytest.raises(DataError, match="sorted by their first covariate"):
            CondDensityModel(1, x[::-1], y[::-1], grid128.points, "nadaraya_watson", 0.05)
        CondDensityModel(1, x[::-1], y[::-1], grid128.points, "knn", 0.05)


class TestCondDensity:
    def test_uniform_outcome_flat_curve(self, rng, grid128):
        # outcome independent of covariates: every conditional curve hugs 1.
        # The sup bound reflects what a local kernel window can deliver at
        # this n; the integrated error is much tighter, and the covariate
        # average (next assertion) is tighter still.
        table = uniform_table(5000, rng, p_treat=1.0)
        model = fit_cond_density(table, 1, grid128)
        eta = model.predict(rng.uniform(size=(20, 2)), grid128)
        interior = (grid128.points > 0.1) & (grid128.points < 0.9)
        assert np.max(np.abs(eta[:, interior] - 1.0)) < 0.35
        l2_errs = np.sqrt(((eta - 1.0) ** 2) @ grid128.weights)
        assert np.max(l2_errs) < 0.2
        avg = eta.mean(axis=0)
        assert np.max(np.abs(avg[interior] - 1.0)) < 0.15

    def test_constant_covariates_equal_marginal(self, rng, grid128):
        n = 400
        x = np.ones((n, 2)) * 0.3
        y = rng.beta(2, 3, size=n)
        table = ObservationTable(x, np.ones(n, dtype=int), y, (0.0, 1.0))
        nw = fit_cond_density(table, 1, grid128, regressor="nadaraya_watson")
        marg = fit_cond_density(table, 1, grid128, regressor="marginal")
        got = nw.predict(np.array([[0.3, 0.3]]), grid128)
        ref = marg.predict(np.array([[0.3, 0.3]]), grid128)
        assert np.allclose(got, ref, atol=1e-10)

    def test_rows_are_densities(self, rng, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(1500, rng)
        for regressor in ("nadaraya_watson", "knn", "marginal"):
            model = fit_cond_density(table, 1, grid128, regressor=regressor)
            eta = model.predict(rng.uniform(size=(50, 2)), grid128)
            assert np.all(eta >= 0)
            assert np.allclose(eta @ grid128.weights, 1.0, atol=1e-6)

    def test_too_few_rows(self, rng, grid128):
        table = uniform_table(30, rng, p_treat=0.2)
        if (table.a == 1).sum() >= 20:
            pytest.skip("unlucky draw")
        with pytest.raises(InsufficientDataError, match="level 1"):
            fit_cond_density(table, 1, grid128)

    def test_fixed_bandwidth_accepted(self, rng, grid128):
        table = uniform_table(200, rng)
        model = fit_cond_density(table, 1, grid128, bandwidth=0.08)
        assert model.h_y == 0.08

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0, -0.1])
    def test_bad_bandwidth_rejected_at_fit(self, bandwidth, rng, grid128):
        # a non-finite bandwidth would otherwise pass the fit and only fail
        # later, as a non-finite transform in an estimate
        table = uniform_table(200, rng)
        with pytest.raises(DataError, match="bandwidth"):
            fit_cond_density(table, 1, grid128, bandwidth=bandwidth)
        with pytest.raises(DataError, match="bandwidth"):
            cross_fit(table, make_folds(200, 2, seed=1), (0, 1), grid128,
                      NuisanceConfig(bandwidth=bandwidth))


class TestFactoredEta:
    @pytest.mark.parametrize("regressor", ["nadaraya_watson", "knn", "marginal"])
    def test_contraction_matches_dense_predict(self, regressor, rng, grid128):
        # the factored W(K(w h)) / mass equals the reference's materialised
        # rows contracted with the same h, and so do the row-weighted sums
        table = get_dgp("confounded_shift").sample(1200, rng)
        model = fit_cond_density(table, 1, grid128, regressor=regressor)
        x = np.vstack([rng.uniform(size=(600, 2)), [[40.0, -40.0]]])
        if regressor == "nadaraya_watson":
            in_window = model.covariates(x[-1:]) @ model._train_aug.T
            assert in_window.max() <= 0.0  # the last row falls back to its nearest
        h = np.column_stack([grid128.points**2, np.cos(5 * grid128.points)])
        v = rng.uniform(size=(len(x), 2))
        factored = FactoredEta(model, x, grid128, v)
        eta = predict_reference(model, x, grid128)
        wh = grid128.weights[:, None] * h
        assert np.allclose(factored.contract(wh), eta @ wh, rtol=0.0, atol=1e-12)
        assert np.allclose(factored.contract(wh[:, 0]), eta @ wh[:, 0], rtol=0.0, atol=1e-12)
        assert np.allclose(factored.row_sums, v.T @ eta, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("size", [128, 512])
    @pytest.mark.parametrize("regressor", ["nadaraya_watson", "knn", "marginal"])
    def test_predict_is_the_dense_view(self, regressor, size, rng):
        # predict (FactoredEta contracted with the identity) against the dense
        # reference, on rows inside and far outside the training cloud
        grid = make_grid(size, "trapezoid")
        table = get_dgp("confounded_shift").sample(1200, rng)
        model = fit_cond_density(table, 1, grid, regressor=regressor)
        x = np.vstack([rng.uniform(size=(300, 2)), 30.0 + 10.0 * rng.uniform(size=(300, 2))])
        ref = predict_reference(model, x, grid)
        assert np.allclose(model.predict(x, grid), ref, rtol=2e-15, atol=0.0)


class TestOperatorAgainstTheExactKernel:
    """Each training kernel's mass, 1/mass, ``contract`` and the row sums of
    the operator B Phi against the same quantities from the exact float64
    kernel, within 1e-9 of the kernel's peak per unit of kernel mass: on the
    lattice, on the outcomes as nodes, and on either side of the switch
    between them, for every regressor and grid rule, with rows far outside
    the training cloud (the Nadaraya-Watson fallback rows) included."""

    @pytest.mark.parametrize("nodes", ["lattice", "outcomes", "switch_outcomes",
                                       "switch_lattice"])
    @pytest.mark.parametrize("rule", ["trapezoid", "gauss_legendre"])
    @pytest.mark.parametrize("regressor", ["nadaraya_watson", "knn", "marginal"])
    def test_products_match_the_exact_kernel(self, regressor, rule, nodes):
        grid = make_grid(128, rule)
        rng = np.random.default_rng(7)
        table = get_dgp("confounded_shift").sample(1200, rng)
        _, y = training_outcomes(table, 1, regressor)
        m = len(y)
        bandwidth = {"lattice": "silverman", "outcomes": 0.01,
                     "switch_outcomes": switch_bandwidth(y, m - 8),
                     "switch_lattice": switch_bandwidth(y, m - 9)}[nodes]
        model = fit_cond_density(table, 1, grid, bandwidth=bandwidth, regressor=regressor)
        _, weights, phi = _outcome_operator(y, grid.points, model.h_y)
        s = phi[-1][0].stop
        assert weights.shape[1] == (8 if nodes.endswith("lattice") else 1)
        assert s < m if nodes.endswith("lattice") else s == m
        exact = kernel_outcome_reference(y, grid.points, model.h_y)
        if regressor == "marginal":
            exact = exact.sum(axis=0, keepdims=True)
        kw = exact @ grid.weights
        assert np.abs(model.k_dot(grid.weights) - kw).max() <= 1e-9 * exact.max()
        tol = 1e-9 * exact.max() / kw.min()             # per unit of kernel mass

        far = 30.0 + 10.0 * rng.uniform(size=(50, 2))
        x = np.vstack([rng.uniform(size=(300, 2)), far, -far])
        v = rng.uniform(size=(len(x), 2)) / len(x)
        eta = FactoredEta(model, x, grid, v)
        if regressor == "nadaraya_watson":
            assert len(eta._fallback[0]) == 100
        rows = weighted_kernel_rows(model, x, exact)
        mass = rows @ grid.weights
        ref = rows / mass[:, None]
        assert np.all(np.abs(eta.inv_mass * mass - 1.0) <= tol)
        wh = grid.weights[:, None] * np.column_stack([grid.points**2, np.cos(5 * grid.points)])
        assert np.abs(eta.contract(wh) - ref @ wh).max() <= tol
        assert np.abs(eta.contract(wh[:, 0]) - ref @ wh[:, 0]).max() <= tol
        assert np.abs(eta.row_sums - v.T @ ref).max() <= tol * ref.max()


class TestKProducts:
    """Every product with Phi runs one full-width row block of at most
    ``_BLOCK`` float64 values at a time (``_k_blocks``), against the whole
    product at once."""

    @staticmethod
    def factored(model, x, grid, v, h):
        eta = FactoredEta(model, x, grid, v)
        return eta, eta.contract(grid.weights * h[:, 0]), eta.contract(grid.weights[:, None] * h)

    @pytest.mark.parametrize("bandwidth", [0.014, 0.002])
    @pytest.mark.parametrize("size", [64, 128, 512])
    @pytest.mark.parametrize("regressor", ["nadaraya_watson", "knn", "marginal"])
    def test_blocked_products_match_the_full_float64_product(self, regressor, size, bandwidth,
                                                             rng, monkeypatch):
        # kw enters inv_mass (and the fallback rows), row_sums is the
        # accumulated v.T W K, contract both a (G,) and a (G, k) product.
        # h = 0.014 keeps the lattice, 1143 nodes against 1411 training rows,
        # and h = 0.002 puts the outcomes at the nodes: several row blocks at
        # every G, some of them stored on fewer than G columns. The reference
        # is the same fit with all of Phi as one block, so it takes each
        # product with all of Phi at once
        grid = make_grid(size, "trapezoid")
        table = get_dgp("confounded_shift").sample(2600, rng)
        model = fit_cond_density(table, 1, grid, bandwidth=bandwidth, regressor=regressor)
        step = _BLOCK // size
        widths = [cols.stop - cols.start for _, cols, _ in model.phi]
        if regressor == "marginal":
            assert widths == [size] and model.m == 1
        else:
            nodes = model.phi[-1][0].stop
            assert nodes > step and nodes % step, (nodes, step)     # the last block short
            assert nodes == (1143 if bandwidth == 0.014 else model.m)
            assert min(widths) < size
        x = np.vstack([rng.uniform(size=(500, 2)), [[40.0, -40.0]]])
        v = rng.uniform(size=(len(x), 2))
        h = np.column_stack([grid.points**2, np.cos(5 * grid.points), np.ones(size)])
        eta, one, many = self.factored(model, x, grid, v, h)
        monkeypatch.setattr(nuisance, "_k_blocks", lambda nodes, size: [slice(0, nodes)])
        whole = fit_cond_density(table, 1, grid, bandwidth=bandwidth, regressor=regressor)
        assert len(whole.phi) == 1
        ref, ref_one, ref_many = self.factored(whole, x, grid, v, h)
        assert np.allclose(eta.inv_mass, ref.inv_mass, rtol=1e-14, atol=0.0)
        assert np.allclose(eta.row_sums, ref.row_sums, rtol=1e-14, atol=0.0)
        assert np.allclose(one, ref_one, rtol=1e-14, atol=0.0)
        assert np.allclose(many, ref_many, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("bandwidth", ["silverman", 0.002])
    @pytest.mark.parametrize("regressor", ["nadaraya_watson", "knn", "marginal"])
    def test_no_product_takes_more_than_a_block_of_phi(self, regressor, bandwidth, grid,
                                                       monkeypatch):
        # Phi is handed out as an array that records the size of every Phi
        # operand of a matmul and refuses every other numpy function (np.dot,
        # einsum, ...), through the fit (the marginal's row sum), FactoredEta,
        # a (G, 8) contract and predict. A product with more of Phi than a
        # block starts OpenBLAS's threads (``_k_blocks``); h = 0.002 puts the
        # outcomes themselves at the nodes, the most nodes
        sizes = []

        class Guarded(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                assert ufunc is np.matmul and method == "__call__", ufunc
                sizes.extend(a.size for a in inputs if isinstance(a, Guarded))
                return ufunc(*(a.view(np.ndarray) if isinstance(a, Guarded) else a
                               for a in inputs), **kwargs)

            def __array_function__(self, func, types, args, kwargs):
                raise AssertionError(f"{func.__name__} on Phi")

        def guarded(phi):
            return [(rows, cols, block.view(Guarded)) for rows, cols, block in phi]

        build = nuisance._outcome_kernel
        monkeypatch.setattr(nuisance, "_outcome_kernel", lambda *args: guarded(build(*args)))
        table = get_dgp("confounded_shift").sample(2600, np.random.default_rng(4))
        model = fit_cond_density(table.rows(np.arange(2000)), 1, grid, bandwidth=bandwidth,
                                 regressor=regressor)
        model.phi = guarded(model.phi)
        x = table.x[2000:]
        wh = grid.weights[:, None] * np.cos(np.outer(grid.points, np.arange(8)))
        FactoredEta(model, x, grid, np.ones((len(x), 2))).contract(wh)
        model.predict(x[:50], grid)
        assert regressor == "marginal" or len(model.phi) > 2
        assert sizes and max(sizes) <= _BLOCK


class TestCovariateWeights:
    @staticmethod
    def far_rows(rng, grid128, constant=0):
        # the first ``constant`` covariates of the training rows are constant.
        # Eval rows 200..449 lie far below the training cloud in every
        # covariate and rows 450..699 far above it, so they sort to both ends
        # of the band coordinate; unless every covariate is constant they fall
        # back to their nearest training row
        table = get_dgp("confounded_shift").sample(1200, rng)
        if constant:
            xc = table.x.copy()
            xc[:, :constant] = 0.3
            table = ObservationTable(xc, table.a, table.y, (0.0, 1.0))
        model = fit_cond_density(table, 1, grid128)
        far = 30.0 + 10.0 * rng.uniform(size=(500, 2))
        far[:250] *= -1.0
        x = np.vstack([rng.uniform(size=(200, 2)), far, rng.uniform(size=(100, 2))])
        return model, x

    @pytest.mark.parametrize("constant", [0, 1, 2])
    def test_blocks_match_the_row_max_builder(self, constant, rng, grid128, monkeypatch):
        model, x = self.far_rows(rng, grid128, constant)
        m = model.m
        v = rng.uniform(size=(len(x), 2))
        eta = FactoredEta(model, x, grid128, v)
        xa = eta._xa                        # the eval rows, sorted by the band coordinate
        assert np.array_equal(xa, model.covariates(x)[eta._order])
        ref = list(weight_blocks_reference(model, xa))
        w_ref = np.vstack([w for _, _, w in ref])
        # the far rows on both sides fall back, row by row, to the nearest
        # rows the reference picks
        empty = np.flatnonzero((xa @ model._train_aug.T).max(axis=1) <= 0.0)
        rows, nearest = eta._fallback
        assert np.array_equal(np.sort(rows), np.arange(200, 700) if constant < 2 else np.arange(0))
        pos = np.argsort(eta._order)[rows]  # their sorted positions
        assert np.array_equal(np.sort(pos), empty)
        onehot = np.zeros((len(rows), m))
        onehot[np.arange(len(rows)), nearest] = 1.0
        assert np.array_equal(w_ref[pos], onehot)
        # the blocks contract multiplies, as they stand once it has used them
        # (copied then: the next block is written into the same buffer)
        got = []
        blocks = model.weight_blocks

        def spy(xa_):
            for rows_, cols, w in blocks(xa_):
                yield rows_, cols, w
                got.append((rows_, cols, w.copy()))

        monkeypatch.setattr(model, "weight_blocks", spy)
        eta.contract(grid128.weights)
        assert [r for r, _, _ in got] == [r for r, _, _ in ref]
        # a varying band coordinate narrows every block, fallback blocks
        # included; a constant one narrows none
        widths = [c.stop - c.start for _, c, _ in got]
        assert all(wd < m for wd in widths) if constant == 0 else all(wd == m for wd in widths)
        w_clip = w_ref.copy()
        w_clip[pos] = 0.0                   # the empty windows, before their fallback
        for r, cols, w in got:
            outside = np.ones(m, dtype=bool)
            outside[cols] = False
            assert not w_clip[r][:, outside].any()      # exact zeros outside the band
            assert np.all(np.abs(w - w_clip[r][:, cols]) <= 4e-15)
        # 1/mass (in the caller's row order) and row sums as the full-width
        # row-max builder forms them: the band and the per-row fallback
        # change the GEMM's and the sums' rounding only
        kmat = dense_operator(model)
        kw = kmat @ grid128.weights
        inv_mass = np.empty(len(x))
        acc = np.zeros((2, len(kw)))
        vs = v[eta._order]
        for r, _, w in ref:
            inv = 1.0 / (w @ kw)
            inv_mass[eta._order[r]] = inv
            acc += (vs[r] * inv[:, None]).T @ w
        assert np.allclose(eta.inv_mass, inv_mass, rtol=1e-14, atol=0.0)
        assert np.allclose(eta.row_sums, acc @ kmat, rtol=1e-14, atol=0.0)

    def test_weight_entries_evaluated(self, grid128, monkeypatch):
        # the W entries one FactoredEta construction and one contract
        # evaluate, per pass of n_ev m, on an mc-effect-shaped fold
        # (m = 1091): full-width blocks would read 1.00, the band reads 0.55
        table = get_dgp("confounded_shift").sample(4000, np.random.default_rng(3))
        model = fit_cond_density(table.rows(np.arange(2000)), 1, grid128)
        count = [0]
        blocks = model.weight_blocks

        def counting(xa):
            for rows, cols, w in blocks(xa):
                count[0] += w.size
                yield rows, cols, w

        monkeypatch.setattr(model, "weight_blocks", counting)
        FactoredEta(model, table.x[2000:], grid128, np.ones((2000, 1))).contract(grid128.weights)
        assert count[0] < 0.65 * 2 * 2000 * model.m

    def test_fallback_to_a_massless_kernel_raises(self, rng, grid128):
        # B's row of the far row's nearest training row set to 0: that
        # training kernel, its only fallback, has no mass
        model, x = self.far_rows(rng, grid128)
        far = x[250:251]
        nearest = (model.covariates(far) @ model._train_aug.T).argmax()
        FactoredEta(model, far, grid128, np.ones((1, 1)))
        model._weights[nearest] = 0.0
        with pytest.raises(DataError, match="no kernel mass"):
            FactoredEta(model, far, grid128, np.ones((1, 1)))


class TestZeroMassRows:
    def test_predict_raises_like_the_factored_form(self):
        # at h_y = 1e-4 on 8 grid points most training kernels miss every
        # node; 32 of these 300 eval rows weight only such kernels
        grid8 = make_grid(8, "trapezoid")
        table = get_dgp("confounded_shift").sample(600, np.random.default_rng(0))
        model = fit_cond_density(table.rows(np.arange(300)), 1, grid8, bandwidth=1e-4)
        x = table.x[300:]
        with pytest.raises(DataError, match="no kernel mass"):
            FactoredEta(model, x, grid8, np.ones((300, 1)))
        with pytest.raises(DataError, match="no kernel mass"):
            model.predict(x, grid8)

    @pytest.mark.parametrize("regressor", ["nadaraya_watson", "knn", "marginal"])
    def test_a_subnormal_mass_raises(self, regressor):
        # every training outcome sits 38.1 h_y above grid point 3 of 8 and
        # far from the rest: each training kernel's mass is a subnormal
        # float64 (about 3e-314), kept where float32 would flush it to 0, and
        # every eval row's mass is one too small to invert
        grid8 = make_grid(8, "trapezoid")
        h = 1e-3
        table = get_dgp("confounded_shift").sample(600, np.random.default_rng(0))
        table = ObservationTable(table.x, table.a, np.full(600, grid8.points[3] + 38.1 * h),
                                 (0.0, 1.0))
        model = fit_cond_density(table.rows(np.arange(300)), 1, grid8, bandwidth=h,
                                 regressor=regressor)
        kw = model.k_dot(grid8.weights)
        assert np.all((kw > 0.0) & (kw < np.finfo(float).tiny))
        x = table.x[300:]
        with pytest.raises(DataError, match="no kernel mass"):
            FactoredEta(model, x, grid8, np.ones((300, 1)))
        with pytest.raises(DataError, match="no kernel mass"):
            model.predict(x, grid8)

    @pytest.mark.parametrize("h", [1e-308, 1e-310])
    def test_a_subnormal_bandwidth_raises(self, h, grid128):
        # at h_y = 1e-308 the lattice step h_y / 16 is subnormal and range(y)
        # over it overflows: the nodes are the outcomes, none of them on a
        # grid point, so no eval row has mass. At 1e-310 the kernel's peak
        # 1 / (h_y sqrt(2 pi)) overflows and the fit itself raises
        table = get_dgp("confounded_shift").sample(600, np.random.default_rng(0))
        with pytest.raises(DataError, match="no kernel mass"):
            model = fit_cond_density(table.rows(np.arange(300)), 1, grid128, bandwidth=h)
            FactoredEta(model, table.x[300:], grid128, np.ones((300, 1)))

    def test_tabulate_raises_on_a_zero_row(self, rng, grid128):
        table = uniform_table(50, rng)

        def eta_fn(xq, level, points):
            eta = np.ones((len(xq), len(points)))
            eta[7] = 0.0
            return eta

        with pytest.raises(DataError, match="row 7 "):
            tabulate_nuisances(table, np.arange(50), (1,), grid128,
                               lambda xq, lev: np.full(len(xq), 0.5), eta_fn)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tabulate_raises_on_a_non_finite_row(self, bad):
        table = get_dgp("confounded_shift").sample(50, np.random.default_rng(0))
        grid64 = make_grid(64, "trapezoid")

        def eta_fn(xq, level, points):
            eta = np.ones((len(xq), len(points)))
            eta[3, 10] = bad
            return eta

        with pytest.raises(DataError, match="row 3 has non-finite or no mass"):
            tabulate_nuisances(table, np.arange(50), (1,), grid64,
                               lambda xq, lev: np.full(len(xq), 0.5), eta_fn)


class TestPluginMarginal:
    def test_average_of_two_rows(self, grid128):
        # one row carries the uniform curve, the other the 2y triangle
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        table = ObservationTable(x, np.array([1, 1]), np.array([0.5, 0.5]), (0.0, 1.0))

        def eta_fn(xq, level, points):
            flat = np.ones_like(points)
            tri = 2.0 * points
            rows = [flat if xi[0] < 0.5 else tri for xi in xq]
            return np.stack(rows)

        fold = tabulate_nuisances(table, np.arange(2), (1,),
                                  grid128, lambda xq, lev: np.full(len(xq), 0.5), eta_fn)
        assert np.allclose(fold.p_hat[1], (1.0 + 2.0 * grid128.points) / 2)

    def test_constant_curve_passthrough(self, rng, grid128):
        table = uniform_table(300, rng)
        model = fit_cond_density(table, 1, grid128, regressor="marginal")
        curve = model.predict(np.zeros((1, 2)), grid128)[0]
        p_hat = FactoredEta(model, table.x, grid128, np.full((300, 1), 1.0 / 300)).row_sums[0]
        assert np.allclose(p_hat, curve, atol=1e-12)

    def test_marginal_error_shrinks_with_n(self, grid128):
        # fixed-seed Monte-Carlo: median L2 error decreases over the n ladder
        dgp = get_dgp("randomized_shift")
        truth = dgp.marginal(1, grid128)
        medians = []
        for n in (500, 2000, 8000):
            errs = []
            for rep in range(20):
                rng = np.random.default_rng([17, n, rep])
                table = dgp.sample(n, rng)
                half = n // 2
                model = fit_cond_density(table.rows(np.arange(half)), 1, grid128)
                p_hat = FactoredEta(model, table.x[half:], grid128,
                                    np.full((n - half, 1), 1.0 / (n - half))).row_sums[0]
                errs.append(np.sqrt(grid128.integrate((p_hat - truth) ** 2)))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestCrossFit:
    def test_fold_shapes_and_validity(self, rng, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(600, rng)
        folds = make_folds(600, 3, seed=5)
        out = cross_fit(table, folds, (0, 1), grid128)
        assert len(out) == 3
        seen = np.concatenate([f.eval_idx for f in out])
        assert sorted(seen) == list(range(600))
        for fold in out:
            for lev in (0, 1):
                assert fold.pi[lev].min() >= 0.01
                assert np.allclose(fold.eta[lev].contract(grid128.weights), 1.0, atol=1e-6)
                assert abs(fold.p_hat[lev] @ grid128.weights - 1.0) < 1e-6

    def test_cross_fit_folds_share_no_storage(self, rng, grid128):
        table = get_dgp("confounded_shift").sample(1500, rng)
        fn = cross_fit(table, make_folds(1500, 4, seed=6), (0, 1), grid128)
        arrays = [a for fold in fn for lev in (0, 1) for a in
                  (*(block for _, _, block in fold.eta[lev].model.phi),
                   fold.eta[lev].model._weights)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_a_kept_fold_equals_a_fresh_fit(self, rng, grid128):
        # every fold of the stream is compared once all of them have been fit
        table = get_dgp("confounded_shift").sample(1500, rng)
        folds = make_folds(1500, 4, seed=6)
        kept = list(fold_stream(table, folds, (0, 1), grid128))
        wh = grid128.weights[:, None] * np.column_stack([grid128.points, grid128.points**3])
        for fold, (_, train_idx, eval_idx) in zip(kept, folds.splits()):
            fresh = single_split(table, train_idx, eval_idx, (0, 1), grid128)
            for lev in (0, 1):
                got, want = fold.eta[lev], fresh.eta[lev]
                for (rows, cols, block), want_block in zip(got.model.phi, want.model.phi):
                    assert (rows, cols) == want_block[:2]
                    assert np.array_equal(block, want_block[2])
                assert np.array_equal(got.model._weights, want.model._weights)
                assert np.array_equal(got.inv_mass, want.inv_mass)
                assert np.array_equal(got.row_sums, want.row_sums)
                assert np.array_equal(got.contract(wh), want.contract(wh))
                assert np.array_equal(fold.p_hat[lev], fresh.p_hat[lev])
                assert np.array_equal(fold.d_hat[lev], fresh.d_hat[lev])

    def test_single_split_matches_manual(self, rng, grid128):
        dgp = get_dgp("randomized_shift")
        table = dgp.sample(400, rng)
        train_idx = np.arange(200)
        eval_idx = np.arange(200, 400)
        fold = single_split(table, train_idx, eval_idx, (1,), grid128)
        model = fit_cond_density(table.rows(train_idx), 1, grid128)
        eta = FactoredEta(model, table.x[eval_idx], grid128, np.full((200, 1), 1.0 / 200))
        assert np.allclose(fold.p_hat[1], eta.row_sums[0])


class TestInjectedPropensity:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [0.0, np.nan, -0.5, 2.0])
    @pytest.mark.parametrize("path", ["tabulate_nuisances", "single_split", "cross_fit"])
    def test_value_outside_unit_interval_is_data_error(self, grid128, path, value):
        # level 0 is bad at the eighth eval row of the first fold only
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(400, np.random.default_rng(0))
        folds = make_folds(table.n, 2, seed=1)
        eval_rows = {"tabulate_nuisances": np.arange(table.n),
                     "single_split": np.arange(200, 400),
                     "cross_fit": folds.eval_idx(0)}[path]

        def pi_fn(x, lev):
            pi = np.asarray(dgp.pi_fn(x, lev), dtype=float)
            if lev == 0 and np.array_equal(x, table.x[eval_rows]):
                pi[7] = value
            return pi

        calls = {
            "tabulate_nuisances": lambda: tabulate_nuisances(
                table, eval_rows, (1, 0), grid128, pi_fn, dgp.eta_fn),
            "single_split": lambda: single_split(
                table, np.arange(200), eval_rows, (1, 0), grid128, pi_fn=pi_fn),
            "cross_fit": lambda: cross_fit(table, folds, (1, 0), grid128, pi_fn=pi_fn),
        }
        with pytest.raises(DataError, match=rf"propensity of level 0 at row {eval_rows[7]} "
                                            rf"is {value!r}, not in \(0, 1\]"):
            calls[path]()


class TestMseBound:
    def test_plugin_mse_dominated_by_integrated_conditional_mse(self, grid128):
        # scaled-down version of the acceptance check: the plug-in marginal's
        # MSE at fixed points is controlled by the integrated conditional MSE
        dgp = get_dgp("randomized_shift")
        n, reps = 500, 80
        from cfdens.oracle import tensor_uniform_quad

        xq, wx = tensor_uniform_quad(16, 2)
        eta_true = dgp.eta_fn(xq, 1, grid128.points)
        truth = wx @ eta_true
        c_const = wx @ (eta_true ** 2)
        idx = np.searchsorted(grid128.points, [0.15, 0.35, 0.55, 0.75, 0.9])
        sq_err = np.zeros((reps, len(idx)))
        int_mse = np.zeros((reps, len(idx)))
        for rep in range(reps):
            rng = np.random.default_rng([23, rep])
            table = dgp.sample(2 * n, rng)
            train_idx = np.arange(n)
            model = fit_cond_density(table.rows(train_idx), 1, grid128)
            p_hat = FactoredEta(model, table.x[n:], grid128, np.full((n, 1), 1.0 / n)).row_sums[0]
            sq_err[rep] = (p_hat[idx] - truth[idx]) ** 2
            eta_hat_q = model.predict(xq, grid128)
            int_mse[rep] = wx @ ((eta_hat_q[:, idx] - eta_true[:, idx]) ** 2)
        lhs = sq_err.mean(axis=0)
        rhs = (1 + 2.0 / n) * int_mse.mean(axis=0) + 2.0 * c_const[idx] / n
        assert np.all(lhs <= 1.10 * rhs)


def collinear_table(eps, seed, n=400):
    """Two covariates that record one quantity at a scale of 1000, the second
    off by at most eps, and a treatment independent of both."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(size=n) * 1000.0
    a = (rng.uniform(size=n) < 0.5).astype(int)
    x = np.column_stack([x1, x1 + eps * rng.uniform(size=n)])
    return ObservationTable(x, a, np.full(n, 0.5), (0.0, 1.0))


class TestLogisticExits:
    """The Newton-IRLS propensity fit stops early on collinear covariates and
    says so through ``PropensityModel.warn``; its predictions stay valid."""

    def test_singular_hessian_keeps_the_start(self):
        # identical columns at this scale absorb the 1e-10 ridge: the first
        # solve raises LinAlgError, so the fit keeps beta = 0
        table = collinear_table(0.0, seed=0)
        predict_raw, converged = _fit_multinomial_logistic(table.x, table.a, (0, 1))
        assert not converged
        assert np.array_equal(predict_raw(table.x), np.full((table.n, 2), 0.5))
        assert fit_propensity_all(table).warn

    @pytest.mark.parametrize("seed", [0, 1])
    def test_step_halving_runs_out(self, seed):
        # columns 1e-7 apart: the Newton steps are halved, and one is halved 30
        # times without raising the likelihood, which ends the fit
        table = collinear_table(1e-7, seed)
        predict_raw, converged = _fit_multinomial_logistic(table.x, table.a, (0, 1))
        assert not converged
        model = fit_propensity_all(table)
        assert model.warn
        probs = model.predict(table.x)
        assert np.all(np.isfinite(probs)) and np.allclose(probs.sum(axis=1), 1.0)
        assert probs.min() >= 0.01


class TestMissingLevel:
    """MISSING_LEVEL labels rows whose outcome is unobserved: no target level."""

    @pytest.mark.parametrize("path", ["single_split", "fold_stream", "cross_fit",
                                      "tabulate_nuisances"])
    def test_is_data_error_before_any_level_is_tabulated(self, grid128, monkeypatch, path):
        dgp = get_dgp("confounded_shift")
        full = dgp.sample(400, np.random.default_rng(0))
        observed = np.random.default_rng(1).uniform(size=full.n) > 0.3
        table = from_raw(full.x, full.a, full.y, observed)
        assert MISSING_LEVEL in table.levels()
        folds = make_folds(table.n, 2, seed=0)
        fits = []
        monkeypatch.setattr(nuisance, "fit_cond_density",
                            lambda *args, **kw: fits.append(args) or None)
        levels = (1, MISSING_LEVEL)
        calls = {
            "single_split": lambda: single_split(table, np.arange(200), np.arange(200, 400),
                                                 levels, grid128),
            "fold_stream": lambda: next(fold_stream(table, folds, levels, grid128)),
            "cross_fit": lambda: cross_fit(table, folds, levels, grid128),
            "tabulate_nuisances": lambda: tabulate_nuisances(
                table, np.arange(table.n), levels, grid128, dgp.pi_fn, dgp.eta_fn),
        }
        with pytest.raises(DataError, match=f"^level {MISSING_LEVEL} marks rows with an "
                                            "unobserved outcome"):
            calls[path]()
        assert fits == []

    def test_other_levels_keep_its_propensity_column(self, grid128):
        full = get_dgp("confounded_shift").sample(400, np.random.default_rng(0))
        table = from_raw(full.x, full.a, full.y,
                         np.random.default_rng(1).uniform(size=full.n) > 0.3)
        fold = single_split(table, np.arange(200), np.arange(200, 400), (1, 0), grid128)
        assert np.all(fold.pi[1] + fold.pi[0] < 1.0)


NUISANCE_CONTRACTS = {
    "propensity method": ("unknown propensity method 'probit'",
                          lambda table, grid: fit_propensity_all(table, method="probit")),
    "density regressor": ("unknown conditional-density regressor 'forest'",
                          lambda table, grid: fit_cond_density(table, 1, grid,
                                                               regressor="forest")),
}


@pytest.mark.parametrize("case", sorted(NUISANCE_CONTRACTS))
def test_nuisance_input_contracts(case, grid128):
    table = get_dgp("confounded_shift").sample(200, np.random.default_rng(0))
    fragment, call = NUISANCE_CONTRACTS[case]
    with pytest.raises(DataError, match=f"^{fragment}$"):
        call(table, grid128)
