import tracemalloc

import numpy as np
import pytest

from helpers import kernel_outcome_reference, predict_reference, weight_blocks_reference

from cfdens import NuisanceConfig, cross_fit, fit_cond_density, make_folds, make_grid
from cfdens import nuisance
from cfdens.data import ObservationTable
from cfdens.errors import DataError, InsufficientDataError
from cfdens.nuisance import (
    _BLOCK,
    _CHUNK,
    CondDensityModel,
    FactoredEta,
    _kernel_outcome_matrix,
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


class TestOutcomeKernel:
    @pytest.mark.parametrize("rule", ["trapezoid", "gauss_legendre"])
    @pytest.mark.parametrize("size", [64, 128, 509, 512])
    @pytest.mark.parametrize("h", [1e-6, 1e-3, 0.005, 0.02, 0.041, 0.07, 0.3, 2.0])
    def test_bit_identical_to_full_reference(self, rule, size, h):
        # m is not a multiple of the row block, and y hits both ends and the
        # middle; at h = 0.07 and above both reflections reach every row. The
        # U-shaped y puts whole row blocks next to each end of [0, 1], where
        # the reflections' staircase matters most, and h = 1e-6 leaves the
        # main term's band only a few columns per block
        m = 1000
        assert m % _CHUNK
        rng = np.random.default_rng(size)
        points = make_grid(size, rule).points
        for y in (rng.uniform(size=m), rng.beta(0.3, 0.3, size=m)):
            y[[0, 411, m - 1]] = [0.0, 0.5, 1.0]
            got = _kernel_outcome_matrix(y, points, h).astype(np.float32, copy=False)
            ref = kernel_outcome_reference(y, points, h).astype(np.float32)
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    @pytest.mark.parametrize("h, bound", [(0.003, 0.25), (0.041, 1.25)])
    def test_kernel_entries_evaluated(self, h, bound, grid, monkeypatch):
        # the entries _gauss evaluates, per m G: the full main term plus the
        # reflections' squares would be 1.00 at h = 0.003 and 2.21 at
        # h = 0.041; the band and the staircase bring them to 0.16 and 1.11
        m = 2845
        y = np.random.default_rng(5).beta(2.0, 3.0, size=m)
        count = [0]
        gauss = nuisance._gauss

        def counting(yy, points, hh, buf):
            count[0] += len(yy) * len(points)
            return gauss(yy, points, hh, buf)

        monkeypatch.setattr(nuisance, "_gauss", counting)
        _kernel_outcome_matrix(y, grid.points, h)
        assert count[0] < bound * m * grid.size

    def test_model_keeps_the_float32_kernel(self, rng, grid128):
        # Nadaraya-Watson rows come sorted by their first covariate, as
        # fit_cond_density sorts them; unsorted ones are rejected
        table = uniform_table(200, rng)
        x, y = table.x[table.a == 1], table.y[table.a == 1]
        order = np.argsort(x[:, 0], kind="stable")
        kmat = _kernel_outcome_matrix(y[order], grid128.points, 0.05)
        model = CondDensityModel(1, x[order], kmat, "nadaraya_watson", 0.05)
        assert np.shares_memory(model.kmat, kmat)
        with pytest.raises(DataError, match="sorted by their first covariate"):
            CondDensityModel(1, x[order[::-1]], kmat, "nadaraya_watson", 0.05)
        CondDensityModel(1, x[order[::-1]], kmat, "knn", 0.05)


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


class TestKProducts:
    """Every product with the float32 K runs one full-width row block of
    ``_BLOCK`` float64 values at a time, against the whole cast at once."""

    @staticmethod
    def factored(model, x, grid, v, h):
        eta = FactoredEta(model, x, grid, v)
        return eta, eta.contract(grid.weights * h[:, 0]), eta.contract(grid.weights[:, None] * h)

    @pytest.mark.parametrize("size", [64, 128, 512])
    @pytest.mark.parametrize("regressor", ["nadaraya_watson", "knn", "marginal"])
    def test_blocked_products_match_the_full_float64_product(self, regressor, size, rng,
                                                             monkeypatch):
        # kw enters inv_mass (and the fallback rows), row_sums is the
        # accumulated v.T W K, contract both a (G,) and a (G, k) product. The
        # reference takes each product in one float64 cast of all of K
        grid = make_grid(size, "trapezoid")
        table = get_dgp("confounded_shift").sample(2600, rng)
        model = fit_cond_density(table, 1, grid, regressor=regressor)
        m, step = len(model.kmat), _BLOCK // size
        if regressor == "marginal":
            assert model.kmat.shape == (1, size) and model.kmat.dtype == np.float64
        else:
            assert m > step and m % step, (m, step)     # several blocks, the last one short
        x = np.vstack([rng.uniform(size=(500, 2)), [[40.0, -40.0]]])
        v = rng.uniform(size=(len(x), 2))
        h = np.column_stack([grid.points**2, np.cos(5 * grid.points), np.ones(size)])
        eta, one, many = self.factored(model, x, grid, v, h)
        monkeypatch.setattr(nuisance, "_k_blocks",
                            lambda kmat: iter([(slice(None), kmat.astype(float))]))
        ref, ref_one, ref_many = self.factored(model, x, grid, v, h)
        assert np.allclose(eta.inv_mass, ref.inv_mass, rtol=1e-14, atol=0.0)
        assert np.allclose(eta.row_sums, ref.row_sums, rtol=1e-14, atol=0.0)
        assert np.allclose(one, ref_one, rtol=1e-14, atol=0.0)
        assert np.allclose(many, ref_many, rtol=1e-14, atol=0.0)

    def test_no_float64_copy_of_k(self, rng, grid):
        # building the factored form and contracting it allocate less than
        # K's own size: a float64 copy of K would be twice that
        table = get_dgp("confounded_shift").sample(7000, rng)
        model = fit_cond_density(table.rows(np.arange(6000)), 1, grid)
        kbytes = model.kmat.nbytes
        assert kbytes > 4 * _BLOCK * 8
        x, v = table.x[6000:], np.full((1000, 2), 1e-3)
        wh = grid.weights[:, None] * np.column_stack([grid.points, grid.points**2])
        tracemalloc.start()
        try:
            FactoredEta(model, x, grid, v).contract(wh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kbytes, (peak, kbytes)


class TestKStorage:
    """A fold stream builds each level's K in one storage while no array of
    the last one is alive, and in new storage otherwise."""

    N, K = 1500, 4

    @pytest.fixture(scope="class")
    def sample(self):
        table = get_dgp("confounded_shift").sample(self.N, np.random.default_rng(11))
        return table, make_folds(self.N, self.K, seed=6)

    @staticmethod
    def address(fold, lev):
        return fold.eta[lev].model.kmat.__array_interface__["data"][0]

    def test_a_stream_dropping_each_fold_reuses_one_buffer_per_level(self, sample, grid128):
        table, folds = sample
        seen = []

        def spy(fold):          # map drops the fold before it asks for the next
            seen.append({lev: self.address(fold, lev) for lev in (0, 1)})

        for _ in map(spy, fold_stream(table, folds, (0, 1), grid128)):
            pass
        assert len(seen) == self.K
        assert all(s == seen[0] for s in seen)
        assert seen[0][0] != seen[0][1]

    def test_a_live_subview_keeps_its_storage(self, sample, grid128):
        table, folds = sample
        kept = []

        def spy(fold):          # keep a view of a view of level 1's K, nothing else
            kept.append(fold.eta[1].model.kmat[5:][:, 3:].T)
            return self.address(fold, 0), self.address(fold, 1)

        seen = list(map(spy, fold_stream(table, folds, (0, 1), grid128)))
        assert len({s[0] for s in seen}) == 1
        assert len({s[1] for s in seen}) == self.K
        for i, view in enumerate(kept):
            assert not any(np.shares_memory(view, other) for other in kept[i + 1:])

    def test_cross_fit_folds_share_no_storage(self, sample, grid128):
        table, folds = sample
        fn = cross_fit(table, folds, (0, 1), grid128)
        kmats = [fold.eta[lev].model.kmat for fold in fn for lev in (0, 1)]
        for i, a in enumerate(kmats):
            assert not any(np.shares_memory(a, b) for b in kmats[i + 1:])

    def test_a_kept_fold_equals_a_fresh_fit(self, sample, grid128):
        # every fold of the list is compared once all of them have been fit
        table, folds = sample
        kept = list(fold_stream(table, folds, (0, 1), grid128))
        wh = grid128.weights[:, None] * np.column_stack([grid128.points, grid128.points**3])
        for fold, (_, train_idx, eval_idx) in zip(kept, folds.splits()):
            fresh = single_split(table, train_idx, eval_idx, (0, 1), grid128)
            for lev in (0, 1):
                got, want = fold.eta[lev], fresh.eta[lev]
                assert np.array_equal(got.model.kmat.view(np.uint32),
                                      want.model.kmat.view(np.uint32))
                assert np.array_equal(got.inv_mass, want.inv_mass)
                assert np.array_equal(got.row_sums, want.row_sums)
                assert np.array_equal(got.contract(wh), want.contract(wh))
                assert np.array_equal(fold.p_hat[lev], fresh.p_hat[lev])
                assert np.array_equal(fold.d_hat[lev], fresh.d_hat[lev])


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
        m = len(model.kmat)
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
        kmat = model.kmat.astype(float)
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
        assert count[0] < 0.65 * 2 * 2000 * len(model.kmat)

    def test_fallback_to_a_massless_kernel_raises(self, rng, grid128):
        model, x = self.far_rows(rng, grid128)
        far = x[250:251]
        nearest = (model.covariates(far) @ model._train_aug.T).argmax()
        model.kmat[nearest] = 0.0
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
