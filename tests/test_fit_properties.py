"""Fit-level properties on degenerate input: whole fits, not kernel by kernel.

Small labelled sets with 1-4 classes of 1-11 rows (at least two rows in
all), 1-6 columns, within-class rank from 0 to d, duplicated rows, a
constant column and integer rounding, fitted over k from 1 to 14, k'
from 1 to 7 and M from 1 to 11.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mpda.dataset import LabeledDataset
from mpda.errors import MpdaError
from mpda.model import fit_mpda, fit_pmpda, staged_fits

FITS = {"mpda": fit_mpda, "pmpda": fit_pmpda}


@st.composite
def degenerate_fits(draw):
    """A degenerate labelled set, a fit kind, a width and the fit's parameters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 11), min_size=1, max_size=4).filter(lambda s: sum(s) >= 2))
    parts = []
    for c, n in enumerate(sizes):
        rank = draw(st.integers(0, d))  # 0: every row of the class coincides
        parts.append(rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d)) + 3.0 * c)
    X, y = np.vstack(parts), np.repeat(np.arange(1, len(sizes) + 1), sizes)
    n_dup = draw(st.integers(0, 3))
    if n_dup:
        src = rng.integers(0, len(X), size=n_dup)
        X, y = np.vstack([X, X[src]]), np.concatenate([y, y[src]])
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 1.5  # a constant column
    if draw(st.booleans()):
        X = np.round(X)  # ties everywhere
    kind = draw(st.sampled_from(sorted(FITS)))
    params = {"k": draw(st.integers(1, 14))}
    if kind == "mpda":
        params.update(kprime=draw(st.integers(1, 7)), max_patch=draw(st.integers(1, 11)))
    return LabeledDataset(X, y), kind, draw(st.integers(1, d)), params


def fit_or_error(kind, ds, m, params):
    """The fitted model, or the mpda error the fit raised."""
    try:
        return FITS[kind](ds, m, **params)
    except MpdaError as exc:
        return exc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(degenerate_fits())
def test_fit_is_finite_or_a_typed_error(case):
    ds, kind, m, params = case
    model = fit_or_error(kind, ds, m, params)
    if not isinstance(model, MpdaError):
        assert model.projection.shape == (ds.d, m)
        assert np.isfinite(model.projection).all() and np.isfinite(model.eigenvalues).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(degenerate_fits(), st.integers(1, 14), st.sampled_from([0.0, 0.5, 20.0]))
def test_staged_fits_equal_one_fit_per_entry(case, k2, gamma2):
    # a two-value grid in k and gamma: the stages the entries share must
    # give each the bytes of fitting it alone
    ds, kind, m, params = case
    entries = [{**params, "k": k, "gamma": g} for k in (params["k"], k2) for g in (1.0, gamma2)]
    alone = [fit_or_error(kind, ds, m, e) for e in entries]
    if any(isinstance(a, MpdaError) for a in alone):
        failed = False
        try:
            list(staged_fits(kind, ds, m, entries))
        except MpdaError:
            failed = True
        assert failed
        return
    staged = dict(staged_fits(kind, ds, m, entries))
    assert sorted(staged) == list(range(len(entries)))
    for i, want in enumerate(alone):
        got = staged[i]
        assert got.hyperparams == want.hyperparams
        for name in ("projection", "eigenvalues", "eigenvectors"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
