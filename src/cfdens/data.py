"""Data ingestion, outcome rescaling, evaluation grids, and fold plans.

Everything downstream works on the unit interval: outcomes are min-max
rescaled to [0,1] at load time (the cosine basis requires it), densities are
tabulated on a shared quadrature grid over [0,1], and ``rescale_params``
carries the inverse map back to original units.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DegenerateOutcomeError,
    EmptyDataError,
    FoldError,
    GridError,
    ParseError,
    SchemaError,
)

MISSING_LEVEL = -1  # treatment label for rows whose outcome was never observed


def _freeze(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ObservationTable:
    """An i.i.d. sample of (covariates, treatment label, outcome).

    Outcomes are stored on the [0,1] scale; ``rescale_params = (y_min, y_max)``
    maps back to original units. Rows recoded as unobserved carry treatment
    label ``MISSING_LEVEL`` and a placeholder outcome of 0 that no
    outcome-dependent term ever reads (the treatment indicator excludes them).
    Treatment labels may be given as floats, but each must be a finite integer.
    """

    x: np.ndarray          # (n, d) covariates
    a: np.ndarray          # (n,) integer treatment labels
    y: np.ndarray          # (n,) outcomes on [0, 1]
    rescale_params: tuple  # (y_min, y_max) in original units

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=float))
        a = np.asarray(self.a)
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        if x.ndim != 2:
            raise DataError("covariates must be a 2-d matrix")
        n, d = x.shape
        if n < 1 or d < 1:
            raise EmptyDataError("need n >= 1 rows and d >= 1 covariates")
        if a.shape != (n,) or y.shape != (n,):
            raise DataError("treatment/outcome length must match covariate rows")
        if a.dtype.kind not in "biu":
            a_float = a.astype(float)
            bad = np.flatnonzero(~(np.abs(a_float) < 2.0**53) | (a_float != np.round(a_float)))
            if bad.size:
                raise DataError(f"treatment label {float(a_float[bad[0]])!r} at row {bad[0]}: "
                                "labels must be integers of magnitude below 2**53")
        a = np.ascontiguousarray(a.astype(int, copy=False))
        if not np.all(np.isfinite(x)):
            raise DataError("non-finite covariate value")
        if not np.all(np.isfinite(y)):
            raise DataError("non-finite outcome value")
        if y.min() < -1e-12 or y.max() > 1 + 1e-12:
            raise DataError("outcomes must lie in [0,1]; use from_raw/load_csv to rescale")
        lo, hi = self.rescale_params
        if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
            raise DegenerateOutcomeError("degenerate outcome range")
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "y", _freeze(np.clip(y, 0.0, 1.0)))

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    def levels(self):
        """Observed treatment labels, ascending."""
        return tuple(int(v) for v in np.unique(self.a))

    def rows(self, idx) -> "ObservationTable":
        """Row-subset view (copy) with the same rescale parameters."""
        idx = np.asarray(idx)
        return ObservationTable(self.x[idx], self.a[idx], self.y[idx], self.rescale_params)

    def to_original(self, y_unit):
        """Map unit-interval outcome values back to original units."""
        lo, hi = self.rescale_params
        return lo + np.asarray(y_unit, dtype=float) * (hi - lo)

    def density_to_original(self, dens_unit):
        """Jacobian-correct a density on [0,1] to original outcome units."""
        lo, hi = self.rescale_params
        return np.asarray(dens_unit, dtype=float) / (hi - lo)


def from_raw(x, a, y_raw, observed=None) -> ObservationTable:
    """Build a table from raw arrays, min-max rescaling the outcome.

    The rescale range is computed over observed rows only. The table is built
    and validated on every row first, and then outcome missingness is folded
    into the treatment label: unobserved rows get label ``MISSING_LEVEL`` (so
    the counterfactual targets become "assigned to arm a AND outcome
    observed") and outcome 0, which is never read downstream because the arm
    indicator excludes these rows from every outcome-dependent term.
    Covariate averages still run over all rows.
    """
    x = np.asarray(x, dtype=float)
    y_raw = np.asarray(y_raw, dtype=float)
    n = len(y_raw)
    if observed is None:
        observed = np.ones(n, dtype=bool)
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != (n,):
        raise DataError("observed flag length must match row count")
    if not observed.any():
        raise DegenerateOutcomeError("no observed outcomes to set a rescale range")
    seen = y_raw[observed]
    if not np.all(np.isfinite(seen)):
        raise DataError("non-finite outcome among observed rows")
    lo, hi = float(seen.min()), float(seen.max())
    if hi - lo <= 0:
        raise DegenerateOutcomeError("degenerate outcome range: all observed outcomes equal")
    y = np.where(observed, (y_raw - lo) / (hi - lo), 0.0)
    table = ObservationTable(x, a, y, (lo, hi))
    if not observed.all():
        table = ObservationTable(table.x, np.where(observed, table.a, MISSING_LEVEL), table.y,
                                 table.rescale_params)
    return table


_NA_STRINGS = {"", "na", "nan", "n/a", "null"}


def load_csv(path, x_cols, a_col, y_col, missing_code=None) -> ObservationTable:
    """Load a headered CSV into an ObservationTable.

    ``missing_code`` (string or number) marks unobserved outcomes; when set,
    blank/NA outcome cells are also treated as unobserved. A cell matches the
    code as text, or, for a numeric code, when it parses to exactly the same
    float ("-999.0" matches "-999"; -999.005 stays observed). Covariates and
    treatment must parse everywhere, and no covariate column may be the
    treatment or outcome column, nor the outcome the treatment (``SchemaError``).
    Cells are parsed column by column; a column that fails is searched for its
    first bad cell, and the ``ParseError`` names the first bad row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"{path}: no header row")
        wanted = list(x_cols) + [a_col, y_col]
        overlap = [c for c in x_cols if c in (a_col, y_col)]
        if overlap:
            raise SchemaError(f"{path}: covariate columns {overlap} are the "
                              "treatment or outcome column")
        if y_col == a_col:
            raise SchemaError(f"{path}: outcome column {y_col!r} is the treatment column")
        missing_cols = [c for c in wanted if c not in header]
        if missing_cols:
            raise SchemaError(f"{path}: missing columns {missing_cols}")
        rows = [row for row in reader if row]   # blank lines are skipped
    index = {name: j for j, name in enumerate(header)}   # a repeated name reads its last column

    def column(name):   # a short row's absent cell is None, which fails to parse
        j = index[name]
        return [row[j] if j < len(row) else None for row in rows]

    code = None if missing_code is None else str(missing_code).strip().lower()
    y_cells = [(cell or "").strip() for cell in column(y_col)]
    unobserved = np.array([code is not None and (c.lower() in _NA_STRINGS or c.lower() == code)
                           for c in y_cells], dtype=bool)
    columns = [(column(c), "covariate") for c in x_cols] + [
        (column(a_col), "treatment"),
        ([0.0 if u else c for c, u in zip(y_cells, unobserved)], "outcome")]
    values, bad = [], []
    for order, (cells, kind) in enumerate(columns):
        try:
            values.append(np.fromiter(map(float, cells), dtype=float, count=len(cells)))
        except (TypeError, ValueError):
            # the first bad row wins; within it, columns in x_cols, treatment, outcome order
            row = next(i for i, cell in enumerate(cells) if not _is_number(cell))
            bad.append((row, order, kind))
    if bad:
        row, _, kind = min(bad)
        raise ParseError(f"{path}: non-numeric {kind} at row {row}")
    if not rows:
        raise EmptyDataError(f"{path}: no data rows")
    *xs, a, y = values
    observed = ~unobserved
    if code is not None and _is_number(code):
        observed &= y != float(code)
    x = np.reshape(xs, (len(xs), len(rows))).T
    return from_raw(x, a, np.where(observed, y, 0.0), observed)


def _is_number(text):
    try:
        float(text)
        return True
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class EvalGrid:
    """Quadrature rule on [0,1]: strictly increasing points, positive weights.

    ``_basis_tables`` memoizes the read-only cosine basis table of each
    dimension on the points (``models.CosineBasis.on_grid``); it takes no
    part in comparison or repr.
    """

    points: np.ndarray
    weights: np.ndarray
    _basis_tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        wts = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise GridError("points and weights must be 1-d and matched")
        if np.any(np.diff(pts) <= 0):
            raise GridError("grid points must be strictly increasing")
        if not np.all((pts >= 0.0) & (pts <= 1.0)):  # nan fails too
            raise GridError("grid points must lie in [0, 1]")
        if np.any(wts <= 0):
            raise GridError("grid weights must be strictly positive")
        if abs(wts.sum() - 1.0) > 1e-10:
            raise GridError("grid weights must integrate the constant 1 to 1")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(wts))

    @property
    def size(self):
        return self.points.shape[0]

    def integrate(self, values):
        """Quadrature of values tabulated on the grid.

        Accepts shape (G,) -> scalar or (G, m) -> (m,); extra trailing axes
        integrate along axis 0.
        """
        values = np.asarray(values)
        return (self.weights @ values.reshape(len(values), -1)).reshape(values.shape[1:])

    def _bracket(self, at):
        """Left node j and fraction t of linear interpolation at ``at``.

        The interpolant of grid values v is v[j] (1 - t) + v[j + 1] t, with
        ``at`` clipped to the end points, so it is constant beyond them.
        """
        pts = self.points
        at = np.clip(np.asarray(at, dtype=float), pts[0], pts[-1])
        j = np.clip(np.searchsorted(pts, at, side="right") - 1, 0, self.size - 2)
        return j, (at - pts[j]) / (pts[j + 1] - pts[j])

    def interp(self, values, at):
        """Linear interpolation of grid-tabulated values at arbitrary y.

        ``values`` may be (G,) or (G, m); outputs match ``at`` with a trailing
        m axis in the matrix case. Constant extrapolation beyond the end
        points (only relevant for Gauss-Legendre grids). Uses the bracket of
        ``interp_weights``, so the two agree term by term.
        """
        values = np.asarray(values, dtype=float)
        j, t = self._bracket(at)
        t = t.reshape(t.shape + (1,) * (values.ndim - 1))
        return values[j] * (1.0 - t) + values[j + 1] * t

    def interp_weights(self, at, coef):
        """The (G,) measure r with r @ values == coef @ interp(values, at).

        Sums coef_i times the linear-interpolation weights of at_i on the grid
        nodes, from the same bracket as ``interp``; the identity holds up to
        the rounding of the two sums' different orders.
        """
        j, t = self._bracket(at)
        return (np.bincount(j, coef * (1.0 - t), minlength=self.size)
                + np.bincount(j + 1, coef * t, minlength=self.size))


def check_candidate(g, grid: EvalGrid):
    """A fixed candidate density g as a float array on the grid.

    ``DataError`` unless g has the grid's shape and every entry is finite.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != grid.points.shape:
        raise DataError("candidate density must be tabulated on the grid")
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise DataError(f"candidate density is non-finite at grid index {bad[0]}")
    return g


def make_grid(size, rule="trapezoid") -> EvalGrid:
    """Build the shared evaluation grid on [0,1].

    ``trapezoid``: uniform points including endpoints, half-weights at the
    ends (composes directly with grid-tabulated conditional densities).
    ``gauss_legendre``: standard nodes/weights mapped from [-1,1].
    """
    if size < 8:
        raise GridError(f"grid of {size} points is too coarse; need at least 8")
    if rule == "trapezoid":
        pts = np.linspace(0.0, 1.0, size)
        wts = np.full(size, 1.0 / (size - 1))
        wts[0] *= 0.5
        wts[-1] *= 0.5
        return EvalGrid(pts, wts)
    if rule == "gauss_legendre":
        nodes, wts = np.polynomial.legendre.leggauss(size)
        return EvalGrid(0.5 * (nodes + 1.0), 0.5 * wts)
    raise GridError(f"unknown grid rule: {rule!r}")


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic cross-fitting plan: balanced folds from a seeded shuffle."""

    n: int
    k_folds: int
    assignment: np.ndarray
    seed: int

    def __post_init__(self):
        assignment = np.ascontiguousarray(np.asarray(self.assignment, dtype=int))
        if assignment.shape != (self.n,):
            raise FoldError("assignment length must equal n")
        object.__setattr__(self, "assignment", _freeze(assignment))

    def eval_idx(self, fold):
        return np.flatnonzero(self.assignment == fold)

    def train_idx(self, fold):
        return np.flatnonzero(self.assignment != fold)

    def splits(self):
        """Yield (fold, train_idx, eval_idx) for every fold role."""
        for j in range(self.k_folds):
            yield j, self.train_idx(j), self.eval_idx(j)


def make_folds(n, k, seed) -> FoldPlan:
    """Balanced fold assignment, a pure function of (n, k, seed >= 0)."""
    if k < 2:
        raise FoldError("need at least 2 folds")
    if n < k:
        raise FoldError(f"cannot split {n} rows into {k} folds")
    if seed < 0:
        raise FoldError(f"fold seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % k
    return FoldPlan(n=n, k_folds=k, assignment=assignment, seed=int(seed))
