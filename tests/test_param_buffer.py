"""The flat buffer behind ``ChmmParams`` and ``GradientSet``: every family
is a read-only view of one float64 buffer, families in library order, and
the copies ``dataclasses.replace``, ``copy`` and ``pickle`` make behave
like the original."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from chmmtrade import (
    ChmmParams,
    FitConfig,
    GradientSet,
    fit,
    jittered_params,
    likelihood_gradient,
    params_from_text,
    params_to_text,
    reestimate,
    uniform_params,
    validate_params,
)
from conftest import family_bytes, random_obs, random_params

PARAMS = ("priors", "trans", "emit", "coupling")
GRADIENTS = tuple("d_" + name for name in PARAMS)

COPIES = {
    "replace": dataclasses.replace,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def assert_views_of_one_buffer(obj, names):
    """Each family is a C-contiguous, read-only view of ``obj._buf``, at
    its place in the buffer, and neither it nor the buffer can be written."""
    buf = obj._buf
    assert buf.dtype == np.float64 and buf.ndim == 1 and not buf.flags.writeable
    start = buf.__array_interface__["data"][0]
    for name in names:
        arr = getattr(obj, name)
        assert arr.base is buf and arr.flags.c_contiguous and not arr.flags.writeable
        assert arr.__array_interface__["data"][0] == start
        start += arr.nbytes
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.5
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    assert start == buf.__array_interface__["data"][0] + buf.nbytes


def _window(rng):
    return jittered_params(3, 4, seed=5), random_obs(rng, 4, 6)


def test_every_route_to_params_gives_views_of_one_buffer(rng):
    p, obs = _window(rng)
    grads = likelihood_gradient(p, obs, scale=True)
    routes = [
        random_params(rng, 3, 4), uniform_params(3, 4), p, reestimate(p, grads), fit(p, obs).params,
        params_from_text(params_to_text(p)), dataclasses.replace(p, coupling=np.eye(2)),
        # Lists and integer arrays are converted to float64.
        ChmmParams(priors=[[1.0], [1.0]], trans=np.ones((2, 2, 1, 1)), emit=[[[1]], [[1]]],
                   coupling=np.eye(2, dtype=int)),
    ]
    for params in routes:
        assert_views_of_one_buffer(params, PARAMS)
    for g in (grads, GradientSet(*[np.array(getattr(grads, name)) for name in GRADIENTS], log_scale=2.0)):
        assert_views_of_one_buffer(g, GRADIENTS)


def test_records_hold_their_families_and_size_as_plain_attributes(rng):
    # No attribute hook on either record type, so the interpreter specialises
    # every load: each family, N and M sit in the instance's dict from construction.
    p, obs = _window(rng)
    grads = likelihood_gradient(p, obs)
    assert not any("__getattr__" in vars(cls) for cls in ChmmParams.__mro__ + GradientSet.__mro__)
    for params in (p, uniform_params(2, 5), fit(p, obs).params, ChmmParams(p.priors, p.trans, p.emit, p.coupling)):
        assert set(PARAMS) | {"n_states", "n_bins"} <= set(vars(params))
        assert (params.n_states, params.n_bins) == params.emit.shape[1:]
    for g in (grads, GradientSet(grads.d_priors, grads.d_trans, grads.d_emit, grads.d_coupling)):
        assert set(GRADIENTS) | {"n_states", "n_bins"} <= set(vars(g))
        assert (g.n_states, g.n_bins) == g.d_emit.shape[1:]


def test_construction_copies_the_arrays(rng):
    arrays = {name: np.array(getattr(random_params(rng, 2, 3), name)) for name in PARAMS}
    params = ChmmParams(**arrays)
    before = family_bytes(params)
    for arr in arrays.values():
        arr[...] = 7.0
    assert family_bytes(params) == before


@pytest.mark.parametrize("make_copy", list(COPIES.values()), ids=list(COPIES))
def test_a_copy_validates_fits_and_prints_like_the_original(make_copy, rng):
    p, obs = _window(rng)
    cfg = FitConfig(sweeps=4, rel_tol=0.0)
    fitted = fit(p, obs, cfg).params
    bad = dataclasses.replace(fitted, coupling=[[1.0, 1.0], [1.0, 1.0]])
    assert validate_params(bad) != []
    for params in (p, fitted, bad):
        twin = make_copy(params)
        assert twin is not params and not np.shares_memory(twin._buf, params._buf)
        assert_views_of_one_buffer(twin, PARAMS)
        assert validate_params(twin) == validate_params(params)
        assert params_to_text(twin) == params_to_text(params)
    a, b = fit(fitted, obs, cfg), fit(make_copy(fitted), obs, cfg)
    assert params_to_text(a.params) == params_to_text(b.params)
    assert a.log_likelihoods == b.log_likelihoods and a.sweeps_run == b.sweeps_run


@pytest.mark.parametrize("make_copy", list(COPIES.values()), ids=list(COPIES))
def test_a_copied_gradient_set_reestimates_like_the_original(make_copy, rng):
    p, obs = _window(rng)
    grads = likelihood_gradient(p, obs, scale=True)
    twin = make_copy(grads)
    assert twin.log_scale == grads.log_scale and not np.shares_memory(twin._buf, grads._buf)
    assert_views_of_one_buffer(twin, GRADIENTS)
    assert family_bytes(reestimate(p, twin)) == family_bytes(reestimate(p, grads))


@pytest.mark.parametrize("name, value, message", [
    ("d_priors", np.ones(3), r"d_priors must have shape \(2, N\), got \(3,\)"),
    ("d_trans", np.ones((2, 2, 2, 3)), r"d_trans must have shape \(2, 2, 3, 3\), got \(2, 2, 2, 3\)"),
    ("d_emit", np.ones((3, 4)), r"d_emit must have shape \(2, 3, M\), got \(3, 4\)"),
    ("d_coupling", np.ones(4), r"d_coupling must have shape \(2, 2\), got \(4,\)"),
])
def test_gradient_set_refuses_a_family_of_the_wrong_shape_by_name(name, value, message, rng):
    grads = likelihood_gradient(*_window(rng))
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(grads, **{name: value})
