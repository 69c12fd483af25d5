import weakref

import numpy as np
import pytest

from cfdens import cross_fit, from_raw, make_folds, make_grid
from cfdens.distances import DistanceSpec
from cfdens.effects import effect_fixed_candidate
from cfdens.errors import DataError, RankError, SolverError
from cfdens.models import CosineBasis, TruncatedSeries, parse_model
from cfdens.nuisance import NuisanceConfig, fold_stream
from cfdens.oracle import get_dgp
from cfdens.projection import certified_root, dr_scores
from cfdens.selection import _gram_schmidt, aggregate_linear, select_model


def bump_density(grid, coef=0.5):
    g = np.maximum(1.0 + coef * np.sqrt(2) * np.cos(np.pi * grid.points), 0.0)
    return g / grid.integrate(g)


def inject_failure(monkeypatch, exc, calls_before_failure=0):
    """Make the expfam:d=3 fit raise exc once it has been fit
    ``calls_before_failure`` times; every other fit runs as usual."""
    calls = []

    def solve(distance, model, *args):
        if model.label == "expfam:d=3":
            calls.append(model)
            if len(calls) > calls_before_failure:
                raise exc
        return certified_root(distance, model, *args)

    monkeypatch.setattr("cfdens.selection.certified_root", solve)


class TestPseudoRisk:
    def test_uniform_candidate_uniform_truth_is_minus_one(self, rng, grid128):
        # raw summand is identically 1 when the candidate is the uniform
        # density (every eta row has unit mass), so the risk equals -2 + 1
        dgp = get_dgp("cosine_bump")
        table = dgp.sample(500, rng)
        rt = select_model(table, make_folds(500, 2, seed=3), 0, [np.ones(grid128.size)], grid128)
        assert rt.risks[0] == pytest.approx(-1.0, abs=1e-12)
        assert rt.ses[0] == pytest.approx(0.0, abs=1e-12)

    def test_offset_to_onestep_distance_is_candidate_free(self, rng, grid128):
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(800, rng)
        folds = make_folds(800, 2, seed=11)
        cands = [bump_density(grid128, coef) for coef in (0.0, 0.2, 0.45)]
        rt = select_model(table, folds, 1, cands, grid128)
        fn = cross_fit(table, folds, (1,), grid128)
        offsets = [effect_fixed_candidate(DistanceSpec("l2"), table, fn, 1, g, grid128).psi_hat
                   - rt.risks[i] for i, g in enumerate(cands)]
        assert np.max(offsets) - np.min(offsets) < 1e-10

    def test_population_orthogonal_perturbation_adds_its_mass(self, grid128):
        # population identity: risk(g + e) - risk(g) = int e^2 when e is
        # orthogonal to both g and the true marginal
        p = np.ones(grid128.size)
        g = np.ones(grid128.size)
        e = 0.3 * np.sqrt(2) * np.cos(np.pi * grid128.points)

        def pop_risk(cand):
            return float(grid128.integrate(cand**2) - 2.0 * grid128.integrate(cand * p))

        gap = pop_risk(g + e) - pop_risk(g)
        assert gap == pytest.approx(float(grid128.integrate(e**2)), abs=1e-12)


class TestSelectModel:
    def test_single_candidate_chosen(self, rng, grid128):
        dgp = get_dgp("cosine_bump")
        table = dgp.sample(600, rng)
        folds = make_folds(600, 2, seed=0)
        rt = select_model(table, folds, 1, [TruncatedSeries(CosineBasis(2))], grid128)
        assert rt.chosen == 0

    def test_duplicate_candidates_tie_break_to_first(self, rng, grid128):
        dgp = get_dgp("cosine_bump")
        table = dgp.sample(600, rng)
        folds = make_folds(600, 2, seed=0)
        g = bump_density(grid128)
        rt = select_model(table, folds, 1, [g, g.copy()], grid128)
        assert rt.risks[0] == rt.risks[1]
        assert rt.chosen == 0

    def test_fixed_candidates_rank_by_distance(self, rng, grid128):
        # candidates: the truth and a far-off density; truth must win
        dgp = get_dgp("cosine_bump")
        table = dgp.sample(2500, rng)
        folds = make_folds(2500, 2, seed=4)
        truth = bump_density(grid128)
        far = bump_density(grid128, -0.5)
        rt = select_model(table, folds, 1, [far, truth], grid128)
        assert rt.chosen_label == "fixed[1]"

    def test_no_candidates_rejected(self, rng, grid128):
        dgp = get_dgp("cosine_bump")
        table = dgp.sample(200, rng)
        folds = make_folds(200, 2, seed=0)
        with pytest.raises(DataError):
            select_model(table, folds, 1, [], grid128)

    def test_model_candidates_fit_and_score(self, rng, grid128):
        dgp = get_dgp("cosine_bump")
        table = dgp.sample(1200, rng)
        folds = make_folds(1200, 2, seed=8)
        cands = [TruncatedSeries(CosineBasis(d)) for d in (1, 4)]
        rt = select_model(table, folds, 1, cands, grid128)
        assert len(rt.risks) == 2
        assert np.all(np.isfinite(rt.risks))
        assert rt.infeasible == []

    def test_only_package_errors_make_a_candidate_infeasible(self, rng, grid128,
                                                              monkeypatch):
        dgp = get_dgp("cosine_bump")
        table = dgp.sample(400, rng)
        folds = make_folds(400, 2, seed=8)
        cands = [TruncatedSeries(CosineBasis(d)) for d in (1, 2)]
        raised = {}

        def failing_solve(distance, model, *args):
            raise raised["exc"]

        monkeypatch.setattr("cfdens.selection.certified_root", failing_solve)
        raised["exc"] = SolverError("no root")
        with pytest.raises(DataError, match="every candidate failed"):
            select_model(table, folds, 1, cands, grid128)
        raised["exc"] = ValueError("a bug, not a data-dependent failure")
        with pytest.raises(ValueError, match="a bug"):
            select_model(table, folds, 1, cands, grid128)

    def test_nonfinite_candidate_is_infeasible_alone(self, rng, grid128):
        # every candidate of a fold role is scored in one stacked call; a
        # non-finite density must drop out on its own, not sink the stack
        dgp = get_dgp("cosine_bump")
        table = dgp.sample(800, rng)
        folds = make_folds(800, 2, seed=6)
        g, g2 = bump_density(grid128), bump_density(grid128, -0.3)
        g_nan = g.copy()
        g_nan[5] = np.nan
        rt = select_model(table, folds, 1, [g, g_nan, g2], grid128)
        ref = select_model(table, folds, 1, [g, g2], grid128)
        assert rt.infeasible == ["fixed[1]"]
        assert len(rt.warnings) == 1 and "candidate fixed[1] infeasible" in rt.warnings[0]
        assert np.isinf(rt.risks[1]) and np.isnan(rt.ses[1])
        assert np.allclose(rt.risks[[0, 2]], ref.risks, rtol=1e-12, atol=0.0)
        assert np.allclose(rt.ses[[0, 2]], ref.ses, rtol=1e-12, atol=0.0)

    def test_candidate_failing_from_the_second_role_is_infeasible(self, monkeypatch,
                                                                  grid128):
        # expfam:d=3 is scored in the first fold role and fails in the second:
        # it is infeasible once, and the others score exactly as without it
        table = get_dgp("confounded_shift").sample(600, np.random.default_rng(13))
        folds = make_folds(600, 2, seed=31)
        cands = [parse_model(t) for t in ("series:d=2", "expfam:d=3", "series:d=4")]
        ref = select_model(table, folds, 1, [cands[0], cands[2]], grid128)
        inject_failure(monkeypatch, SolverError("no root"), calls_before_failure=1)
        rt = select_model(table, folds, 1, cands, grid128)
        assert rt.infeasible == ["expfam:d=3"]
        assert len(rt.warnings) == 1 and "candidate expfam:d=3 infeasible" in rt.warnings[0]
        assert np.isinf(rt.risks[1])
        assert np.array_equal(rt.risks[[0, 2]], ref.risks)
        assert np.array_equal(rt.ses[[0, 2]], ref.ses)
        assert ref.infeasible == [] and ref.warnings == []

    def test_fixed_candidate_risks_match_pseudo_l2_risk(self, rng, grid128):
        # by hand: -2 x the raw doubly-robust summands plus int g^2, pooled
        # over the cross_fit folds (the same splits as select_model's roles)
        dgp = get_dgp("confounded_shift")
        table = dgp.sample(900, rng)
        folds = make_folds(900, 3, seed=12)
        # no uniform candidate: its summands are constant and its se is roundoff
        cands = [bump_density(grid128, c) for c in (0.15, 0.3, -0.2)]
        rt = select_model(table, folds, 1, cands, grid128)
        stack = np.column_stack(cands)
        summands = np.concatenate(
            [-2.0 * dr_scores(table, fold, 1, stack, grid128) + grid128.integrate(stack**2)
             for fold in cross_fit(table, folds, (1,), grid128)])
        risks = summands.mean(axis=0)
        ses = summands.std(axis=0, ddof=1) / np.sqrt(len(summands))
        assert np.allclose(rt.risks, risks, rtol=1e-12, atol=0.0)
        assert np.allclose(rt.ses, ses, rtol=1e-12, atol=0.0)


class TestSelectionConsistency:
    def test_selected_fit_improves_with_n(self, grid128):
        # Monotone consistency of the select-then-fit pipeline. The chosen
        # DIMENSION itself does not converge: a candidate one dimension too
        # large loses only O(1/n) of risk while the risk-difference noise is
        # also O(1/n), so penalty-free argmin selection keeps an n-free
        # overfit probability. What does improve monotonically is the
        # selected estimator, whose error carries the whole pipeline.
        from cfdens.oracle import cosine_series_dgp
        from cfdens.projection import solve_onestep

        grid = make_grid(96)
        dgp = cosine_series_dgp([0.3, 0.12, 0.06])
        truth = dgp.marginal(1, grid)
        cands = [TruncatedSeries(CosineBasis(d)) for d in range(1, 7)]
        medians = []
        for n, reps in ((1000, 30), (4000, 30), (16000, 12)):
            errs = []
            for rep in range(reps):
                rng = np.random.default_rng([61, n, rep])
                table = dgp.sample(n, rng)
                folds = make_folds(n, 2, seed=1300 + rep)
                rt = select_model(table, folds, 1, cands, grid)
                fn = cross_fit(table, folds, (1,), grid)
                est = solve_onestep(DistanceSpec("l2"), cands[rt.chosen],
                                    table, fn, 1, grid)
                errs.append(np.sqrt(grid.integrate((est.fitted_density - truth) ** 2)))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]


class TestGramSchmidt:
    def test_orthonormal_output(self, grid128, rng):
        second = 1.0 + 0.3 * np.sqrt(2) * np.cos(2 * np.pi * grid128.points)
        curves = [np.ones(grid128.size),
                  bump_density(grid128),
                  second / grid128.integrate(second)]
        ortho, coef, dropped = _gram_schmidt(curves, grid128)
        assert dropped == []
        gram = grid128.integrate(ortho.T[:, :, None] * ortho.T[:, None, :])
        assert np.allclose(gram, np.eye(3), atol=1e-10)
        recon = coef @ np.array(curves)
        assert np.allclose(recon, ortho, atol=1e-10)

    def test_duplicates_dropped(self, grid128):
        g = bump_density(grid128)
        ortho, coef, dropped = _gram_schmidt([g, g.copy()], grid128)
        assert dropped == [1]
        assert ortho.shape[0] == 1


class TestAggregate:
    def test_single_true_candidate_gets_weight_one(self, grid128):
        dgp = get_dgp("cosine_bump")
        rng = np.random.default_rng(3)
        table = dgp.sample(8000, rng)
        folds = make_folds(8000, 2, seed=19)
        truth = bump_density(grid128)
        # oracle nuisances for the scoring split: patch via arrays candidate
        # and fitted nuisances on the training half (x-free design)
        agg = aggregate_linear(table, folds, 1, [truth], grid128,
                               nuis_config=NuisanceConfig(density="marginal"))
        assert abs(agg.weights[0] - 1.0) < 0.05
        assert np.all(agg.density >= 0)
        assert abs(grid128.integrate(agg.density) - 1.0) < 1e-10

    def test_duplicate_candidates_share_weight(self, grid128):
        dgp = get_dgp("cosine_bump")
        rng = np.random.default_rng(5)
        table = dgp.sample(3000, rng)
        folds = make_folds(3000, 2, seed=23)
        truth = bump_density(grid128)
        cfg = NuisanceConfig(density="marginal")
        single = aggregate_linear(table, folds, 1, [truth], grid128, nuis_config=cfg)
        double = aggregate_linear(table, folds, 1, [truth, truth.copy()], grid128,
                                  nuis_config=cfg)
        assert single.meta["roles"] == double.meta["roles"] == 2
        assert double.dropped == [1]
        assert double.weights[0] + double.weights[1] == pytest.approx(single.weights[0])
        assert np.allclose(double.density, single.density, atol=1e-8)

    def test_uniform_plus_truth_beats_uniform(self, grid128):
        dgp = get_dgp("cosine_bump")
        truth_curve = dgp.marginal(1, grid128)
        rng = np.random.default_rng(11)
        table = dgp.sample(6000, rng)
        folds = make_folds(6000, 2, seed=29)
        cands = [np.ones(grid128.size), bump_density(grid128)]
        agg = aggregate_linear(table, folds, 1, cands, grid128,
                               nuis_config=NuisanceConfig(density="marginal"))
        err_agg = grid128.integrate((agg.density - truth_curve) ** 2)
        err_unif = grid128.integrate((np.ones(grid128.size) - truth_curve) ** 2)
        assert err_agg < err_unif

    @pytest.mark.parametrize("role", [0, 1], ids=["every-role", "second-role"])
    def test_failing_candidate_is_infeasible(self, monkeypatch, grid128, role):
        # the expfam fit fails from the given fold role on; the others must
        # aggregate exactly as without it
        table = get_dgp("confounded_shift").sample(600, np.random.default_rng(13))
        folds = make_folds(600, 2, seed=31)
        cands = [parse_model(t) for t in ("series:d=2", "expfam:d=3", "series:d=4")]
        ref = aggregate_linear(table, folds, 1, [cands[0], cands[2]], grid128)
        inject_failure(monkeypatch, SolverError("no root"), calls_before_failure=role)
        agg = aggregate_linear(table, folds, 1, cands, grid128)
        assert agg.infeasible == ["expfam:d=3"]
        assert len(agg.warnings) == 1 and "expfam:d=3" in agg.warnings[0]
        assert agg.weights[1] == 0.0
        assert np.allclose(agg.weights[[0, 2]], ref.weights, rtol=1e-12, atol=0.0)
        assert np.allclose(agg.density, ref.density, rtol=1e-12, atol=0.0)
        assert ref.infeasible == [] and ref.warnings == []

    def test_bug_in_a_candidate_fit_propagates(self, monkeypatch, grid128):
        table = get_dgp("confounded_shift").sample(400, np.random.default_rng(13))
        folds = make_folds(400, 2, seed=31)
        cands = [parse_model(t) for t in ("series:d=2", "expfam:d=3")]
        inject_failure(monkeypatch, ValueError("a bug, not a data-dependent failure"))
        with pytest.raises(ValueError, match="a bug"):
            aggregate_linear(table, folds, 1, cands, grid128)

    def test_every_candidate_failing_is_a_data_error(self, monkeypatch, grid128):
        table = get_dgp("confounded_shift").sample(400, np.random.default_rng(13))
        folds = make_folds(400, 2, seed=31)
        inject_failure(monkeypatch, SolverError("no root"))
        with pytest.raises(DataError, match="every candidate failed"):
            aggregate_linear(table, folds, 1, [parse_model("expfam:d=3")], grid128)

    def test_dropped_uses_original_indices(self, monkeypatch, grid128):
        table = get_dgp("confounded_shift").sample(400, np.random.default_rng(13))
        folds = make_folds(400, 2, seed=31)
        cands = [parse_model(t) for t in ("expfam:d=3", "series:d=2", "series:d=2")]
        inject_failure(monkeypatch, SolverError("no root"))
        agg = aggregate_linear(table, folds, 1, cands, grid128)
        assert agg.infeasible == ["expfam:d=3"] and agg.dropped == [2]

    @pytest.mark.parametrize("fit", [aggregate_linear, select_model])
    def test_singular_sandwich_leaves_every_candidate_feasible(self, monkeypatch, grid128,
                                                               fit):
        # a candidate is only its fitted density: its fit stops at the
        # certified root, so a singular sandwich there cannot reject it
        def singular(*args):
            raise RankError("moment derivative is numerically singular (cond=1e+14)")

        monkeypatch.setattr("cfdens.projection.sandwich_cov", singular)
        table = get_dgp("confounded_shift").sample(400, np.random.default_rng(13))
        folds = make_folds(400, 2, seed=31)
        cands = [parse_model(t) for t in ("series:d=2", "expfam:d=3", "series:d=4")]
        out = fit(table, folds, 1, cands, grid128)
        assert out.infeasible == [] and out.warnings == []

    def test_mixture_with_a_singular_sandwich_is_aggregated(self, grid128):
        # on this sample the gmm:k=2 root is certified, but its moment
        # derivative has cond ~ 4e13, so a full fit would raise RankError
        table = get_dgp("confounded_shift").sample(1500, np.random.default_rng(0))
        cands = [parse_model(t) for t in ("series:d=2", "gmm:k=2", "expfam:d=3")]
        agg = aggregate_linear(table, make_folds(1500, 3, 0), 1, cands, grid128)
        assert agg.infeasible == [] and agg.warnings == []
        assert agg.weights[1] != 0.0

    @pytest.mark.parametrize("fit", [aggregate_linear, select_model])
    def test_absent_level_is_named(self, grid128, fit):
        # the held-out nuisances are fit before any candidate, so a level
        # absent from the training rows fails the run by name
        table = get_dgp("confounded_shift").sample(400, np.random.default_rng(13))
        folds = make_folds(400, 2, seed=31)
        with pytest.raises(DataError, match=r"level 7 absent .*\[0, 1\]"):
            fit(table, folds, 7, [parse_model("series:d=2")], grid128)


def three_level_table(n=300, seed=0):
    """Levels {0, 1, 2} drawn with p = (0.45, 0.2, 0.35): level 1 is thin."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 2))
    a = rng.choice(3, size=n, p=(0.45, 0.2, 0.35))
    return from_raw(x, a, rng.normal(0.5 + 0.2 * x[:, 0] + 0.1 * a, 0.15))


class TestEveryCandidateFailing:
    @pytest.mark.parametrize("fit, labels", [
        (select_model, ("series:d=1", "series:d=2", "series:d=3")),
        (aggregate_linear, ("series:d=2", "expfam:d=2")),
    ], ids=["select_model", "aggregate_linear"])
    def test_error_names_every_candidate_and_its_reason(self, grid128, fit, labels):
        # level 1 leaves fewer inner training rows than a conditional density needs
        table = three_level_table()
        with pytest.raises(DataError, match="every candidate failed to fit: ") as info:
            fit(table, make_folds(table.n, 2, 0), 1, [parse_model(t) for t in labels],
                grid128)
        message = str(info.value)
        for label in labels:
            assert f"candidate {label} infeasible: conditional density at level 1: " in message
        assert message.count("training rows, need >= 20") == len(labels)


class TestInnerFoldStream:
    """The candidates' inner folds come off ``fold_stream`` and keep no eta."""

    @pytest.mark.parametrize("fit", [select_model, aggregate_linear],
                             ids=["select_model", "aggregate_linear"])
    def test_inner_folds_hold_no_k(self, fit, monkeypatch, grid128):
        # weak references to every inner fold's fitted densities: each must be
        # dead when the stream yields the next inner fold and whenever a root
        # is solved, so the stream builds both inner folds of a role in one K
        # storage; the numbers are those of the inner cross-fit's list
        table = get_dgp("cosine_bump").sample(1200, np.random.default_rng(2))
        folds = make_folds(1200, 2, seed=8)
        cands = [TruncatedSeries(CosineBasis(1)), TruncatedSeries(CosineBasis(3)),
                 parse_model("expfam:d=2")]
        monkeypatch.setattr("cfdens.selection.fold_stream",
                            lambda *args: iter(cross_fit(*args)))
        want = fit(table, folds, 1, cands, grid128)
        refs, addresses = [], []

        def watched(*args):
            def record(fold):
                assert all(r() is None for r in refs), "an earlier inner fold's eta is alive"
                refs.extend(weakref.ref(eta) for eta in fold.eta.values())
                addresses.append(fold.eta[1].model.kmat.__array_interface__["data"][0])
                return fold

            return map(record, fold_stream(*args))

        def root(*args):
            assert all(r() is None for r in refs), "a root is solved with an inner eta alive"
            return certified_root(*args)

        monkeypatch.setattr("cfdens.selection.fold_stream", watched)
        monkeypatch.setattr("cfdens.selection.certified_root", root)
        got = fit(table, folds, 1, cands, grid128)
        assert len(refs) == 2 * folds.k_folds          # two inner folds per role
        assert all(r() is None for r in refs)
        assert addresses[0::2] == addresses[1::2]
        if fit is select_model:
            assert np.array_equal(got.risks, want.risks)
            assert np.array_equal(got.ses, want.ses)
        else:
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.density, want.density)


class TestFixedCandidateCheck:
    """Selection checks every candidate density as the fixed-candidate
    distance does (``data.check_candidate``), in the same words."""

    @pytest.mark.parametrize("entry", ["select", "aggregate"])
    def test_misshaped_and_nonfinite_densities_are_infeasible(self, grid128, entry):
        table = get_dgp("cosine_bump").sample(600, np.random.default_rng(3))
        folds = make_folds(table.n, 2, seed=6)
        g = bump_density(grid128)
        g_nan = g.copy()
        g_nan[5] = np.nan
        cands = [g, g_nan, g[:-1], bump_density(grid128, -0.3)]
        run = select_model if entry == "select" else aggregate_linear
        out = run(table, folds, 1, cands, grid128)
        assert out.infeasible == ["fixed[1]", "fixed[2]"]
        assert out.warnings == [
            "candidate fixed[1] infeasible: candidate density is non-finite at grid index 5",
            "candidate fixed[2] infeasible: candidate density must be tabulated on the grid"]
        fn = cross_fit(table, folds, (1,), grid128)
        for bad in (g_nan, g[:-1]):
            with pytest.raises(DataError) as info:
                effect_fixed_candidate(DistanceSpec("l2"), table, fn, 1, bad, grid128)
            assert str(info.value) in " ".join(out.warnings)


@pytest.mark.parametrize("entry,candidates,message", [
    ("select", [], "need at least one candidate"),
    ("aggregate", [], "need at least one candidate"),
    ("aggregate", [np.zeros(128)], "candidate set spans no direction")])
def test_selection_input_contracts(grid128, entry, candidates, message):
    table = get_dgp("cosine_bump").sample(400, np.random.default_rng(0))
    run = select_model if entry == "select" else aggregate_linear
    with pytest.raises(DataError, match=f"^{message}$"):
        run(table, make_folds(table.n, 2, seed=0), 1, candidates, grid128)
