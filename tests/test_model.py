import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from chmmtrade import (
    ChmmParams,
    ObservationSequence,
    joint_transition,
    jittered_params,
    params_from_text,
    params_to_text,
    uniform_params,
    validate_params,
)
from chmmtrade import model
from chmmtrade.backtest import BacktestConfig, run_backtest
from chmmtrade.cli import _default_sim_params
from chmmtrade.indicators import Discretizer
from chmmtrade.inference import coupled_viterbi, forward
from chmmtrade.model import _JITTER, N_CHAINS, SIMPLEX_ATOL, check_params
from chmmtrade.oracle import alpha_gradients, params_by_family, sample_chmm, synthetic_ohlc, validate_by_family
from chmmtrade.training import FitConfig, GradientSet, fit, likelihood_gradient, reestimate
from conftest import bars_from_closes, family_bytes, random_params, simplex_instances


def test_uniform_params_pass_validation():
    assert validate_params(uniform_params(5, 8)) == []


@pytest.mark.parametrize("make", [uniform_params, jittered_params])
def test_initial_params_reject_zero_sizes_as_chmm_params_does(make):
    with pytest.raises(ValueError, match="^need at least one state per chain$"):
        make(0, 8)
    with pytest.raises(ValueError, match=r"^emit must have shape \(2, 3, M\), got \(2, 3, 0\)$"):
        make(3, 0)
    with pytest.raises(ValueError, match="^need at least one state per chain$"):
        ChmmParams(priors=np.ones((2, 0)), trans=np.ones((2, 2, 0, 0)), emit=np.ones((2, 0, 8)), coupling=np.eye(2))
    with pytest.raises(ValueError, match=r"^emit must have shape \(2, 3, M\), got \(2, 3, 0\)$"):
        ChmmParams(priors=np.ones((2, 3)), trans=np.ones((2, 2, 3, 3)), emit=np.ones((2, 3, 0)), coupling=np.eye(2))


@pytest.mark.parametrize("make, field, value", [
    (lambda v: uniform_params(v, 3), "n_states", 2.7),
    (lambda v: uniform_params(2, v), "n_bins", 3.9),
    (lambda v: jittered_params(v, 3), "n_states", 2.0),
    (lambda v: BacktestConfig(n_states=v), "n_states", 2.5),
    (lambda v: BacktestConfig(lookback=v), "lookback", np.float64(4.0)),
    (lambda v: BacktestConfig(atr_period=v), "atr_period", "5"),
    (lambda v: Discretizer(0.0, 100.0, v), "m", 2.5),
    (lambda v: FitConfig(sweeps=v), "sweeps", 2.5),
    (lambda v: FitConfig(sweeps=v), "sweeps", None),
    (lambda v: FitConfig(sweeps=v), "sweeps", True),
    (lambda v: BacktestConfig(n_states=v), "n_states", True),
    (lambda v: BacktestConfig(seed=v), "seed", False),
    (lambda v: uniform_params(2, v), "n_bins", np.True_),
    (lambda v: sample_chmm(_PARAMS, v), "length", 2.5),
    (lambda v: sample_chmm(_PARAMS, v), "length", np.float64(3.0)),
    (lambda v: sample_chmm(_PARAMS, v), "length", "3"),
    (lambda v: synthetic_ohlc(_PARAMS, v), "length", 2.5),
    (lambda v: synthetic_ohlc(_PARAMS, v), "length", np.float64(3.0)),
    (lambda v: synthetic_ohlc(_PARAMS, v), "length", "3"),
], ids=["uniform-n_states", "uniform-n_bins", "jittered-n_states", "backtest-n_states", "backtest-lookback",
        "backtest-atr_period", "discretizer-m", "fit-sweeps", "fit-sweeps-none", "fit-sweeps-bool",
        "backtest-n_states-bool", "backtest-seed-bool", "uniform-n_bins-numpy-bool", "sample-length",
        "sample-length-numpy", "sample-length-str", "synthetic-length", "synthetic-length-numpy", "synthetic-length-str"])
def test_a_size_that_is_not_an_integer_is_refused_by_name(make, field, value):
    # Any value operator.index refuses, numpy floats and whole floats
    # included, and bools, which index takes as 0 and 1; integer sizes,
    # numpy ones too, are taken as they are.
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        make(value)
    assert make(np.int64(3)) is not None


def test_row_sum_violation_names_matrix_and_row():
    p = uniform_params(2, 2)
    trans = np.array(p.trans)
    trans[0, 0, 1] = [0.6, 0.6]  # row sums to 1.2
    bad = ChmmParams(priors=p.priors, trans=trans, emit=p.emit, coupling=p.coupling)
    issues = validate_params(bad)
    assert len(issues) == 1
    assert "(1,1)" in issues[0] and "row 2" in issues[0]


def test_coupling_column_violation_named():
    p = uniform_params(2, 2)
    coupling = np.array([[0.5, 0.5], [0.4, 0.5]])  # column 1 sums to 0.9
    bad = ChmmParams(priors=p.priors, trans=p.trans, emit=p.emit, coupling=coupling)
    issues = validate_params(bad)
    assert len(issues) == 1
    assert "coupling column 1" in issues[0]


def test_out_of_range_entries_reported():
    p = uniform_params(2, 2)
    priors = np.array([[1.5, -0.5], [0.5, 0.5]])
    bad = ChmmParams(priors=priors, trans=p.trans, emit=p.emit, coupling=p.coupling)
    assert any("outside [0, 1]" in msg for msg in validate_params(bad))


def _with_entry(family, idx, value):
    p = uniform_params(2, 2)
    arrays = {f: np.array(getattr(p, f)) for f in ("priors", "trans", "emit", "coupling")}
    arrays[family][idx] = value
    return ChmmParams(**arrays)


@pytest.mark.parametrize(
    "params, expected",
    [
        # NaN fails every comparison: the range check reports it, the sum
        # check (``> atol``) does not.
        (_with_entry("emit", (0, 1, 0), np.nan), ["emit: entries outside [0, 1]"]),
        (_with_entry("priors", (1, 0), np.nan), ["priors: entries outside [0, 1]"]),
        (_with_entry("coupling", (1, 0), np.nan), ["coupling: entries outside [0, 1]"]),
        # A row sum 2e-9 off is past SIMPLEX_ATOL (1e-9); 5e-10 off is inside it.
        (
            _with_entry("trans", (0, 1, 1, 1), 0.5 + 2e-9),
            [f"transition matrix (1,2) row 2: sums to {np.float64(1.0000000020000002)!r}"],
        ),
        (
            _with_entry("trans", (0, 1, 1, 1), 0.5 - 2e-9),
            [f"transition matrix (1,2) row 2: sums to {np.float64(0.9999999980000001)!r}"],
        ),
        (_with_entry("trans", (0, 1, 1, 1), 0.5 + 5e-10), []),
        # An entry just above 1 is out of range although its row sum is in tolerance.
        (
            ChmmParams(priors=[[1.0 + 1e-12, 0.0], [0.5, 0.5]], trans=np.full((2, 2, 2, 2), 0.5),
                       emit=np.full((2, 2, 2), 0.5), coupling=np.full((2, 2), 0.5)),
            ["priors: entries outside [0, 1]"],
        ),
        # A negative entry in a row that still sums to one, every entry <= 1.
        (
            ChmmParams(priors=np.full((2, 2), 0.5), trans=np.full((2, 2, 2, 2), 0.5),
                       emit=[[[0.6, 0.6, -0.2], [0.2, 0.3, 0.5]], np.full((2, 3), 1 / 3)],
                       coupling=np.full((2, 2), 0.5)),
            ["emit: entries outside [0, 1]"],
        ),
        # -0.0 compares equal to 0.0 and is a valid probability.
        (
            ChmmParams(priors=[[1.0, -0.0], [0.5, 0.5]], trans=np.full((2, 2, 2, 2), 0.5),
                       emit=np.full((2, 2, 2), 0.5), coupling=np.full((2, 2), 0.5)),
            [],
        ),
    ],
)
def test_validate_params_messages_at_the_tolerance_edges(params, expected):
    assert validate_params(params) == expected


FAMILIES = ("priors", "trans", "emit", "coupling")


def _messages_family_by_family(params):
    """Reference for ``validate_params``: the message builder as it was when
    each family was reduced on its own, one simplex at a time."""
    issues = []
    for name in FAMILIES:
        arr = getattr(params, name)
        if not ((arr >= 0.0) & (arr <= 1.0)).all():
            issues.append(f"{name}: entries outside [0, 1]")
    for c in range(N_CHAINS):
        s = params.priors[c].sum()
        if abs(s - 1.0) > SIMPLEX_ATOL:
            issues.append(f"prior chain {c + 1}: sums to {s!r}")
    for cp in range(N_CHAINS):
        for c in range(N_CHAINS):
            rows = params.trans[cp, c].sum(axis=1)
            for i in np.nonzero(np.abs(rows - 1.0) > SIMPLEX_ATOL)[0]:
                issues.append(f"transition matrix ({cp + 1},{c + 1}) row {i + 1}: sums to {rows[i]!r}")
    for c in range(N_CHAINS):
        rows = params.emit[c].sum(axis=1)
        for j in np.nonzero(np.abs(rows - 1.0) > SIMPLEX_ATOL)[0]:
            issues.append(f"emission matrix chain {c + 1} row {j + 1}: sums to {rows[j]!r}")
    cols = params.coupling.sum(axis=0)
    for c in np.nonzero(np.abs(cols - 1.0) > SIMPLEX_ATOL)[0]:
        issues.append(f"coupling column {c + 1}: sums to {cols[c]!r}")
    return issues


@st.composite
def perturbed_params(draw):
    """``simplex_instances`` parameters with up to four entries replaced by
    NaN, +-inf, a negative number or one above 1, or moved by k * SIMPLEX_ATOL
    with |k| near 1, which shifts that entry's row (or column) sum by about
    as much and lands on either side of the tolerance."""
    params, _ = draw(simplex_instances(max_len=1))
    arrays = {name: np.array(getattr(params, name)) for name in FAMILIES}
    for _ in range(draw(st.integers(0, 4))):
        arr = arrays[draw(st.sampled_from(FAMILIES))]
        idx = draw(st.integers(0, arr.size - 1))
        # "shift" twice: the tolerance edge gets a third of the draws.
        kind = draw(st.sampled_from(["nan", "inf", "-inf", "negative", "above one", "shift", "shift"]))
        if kind == "shift":
            k = draw(st.floats(0.9, 1.1)) * draw(st.sampled_from([-1.0, 1.0]))
            arr.flat[idx] += k * SIMPLEX_ATOL
        elif kind == "negative":
            arr.flat[idx] = -draw(st.floats(1e-300, 1.0))
        elif kind == "above one":
            arr.flat[idx] = 1.0 + draw(st.floats(1e-15, 1.0))
        else:
            arr.flat[idx] = float(kind)
    return ChmmParams(**arrays)


@given(perturbed_params())
def test_validate_params_matches_the_family_by_family_messages(params):
    # +inf and -inf in one simplex sum to NaN, which numpy warns about in
    # the reference; validate_params itself must not warn (warnings are errors here).
    with np.errstate(invalid="ignore"):
        expected = _messages_family_by_family(params)
    assert validate_params(params) == expected


# Simplex sums at the tolerance on either side of one, and an ulp or two past it each way.
_EDGE_SUMS = [edge + k * np.spacing(edge) for edge in (1.0 - SIMPLEX_ATOL, 1.0 + SIMPLEX_ATOL) for k in range(-2, 3)]


def _with_simplex_sum(params, family, k, target):
    """``params`` with the ``k``-th simplex (row, or coupling column) of
    ``family``, counted cyclically, replaced by one summing to ``target``
    exactly: ``target - 0.25`` and ``0.25`` are both exact, and so is
    their sum, in any summation order."""
    arrays = {name: np.array(getattr(params, name)) for name in FAMILIES}
    simplices = np.moveaxis(arrays[family], {"priors": 1, "trans": 3, "emit": 2, "coupling": 0}[family], -1)
    simplex = simplices[np.unravel_index(k % (simplices.size // simplices.shape[-1]), simplices.shape[:-1])]
    simplex[:] = 0.0
    simplex[:2] = [target] if simplex.size == 1 else [target - 0.25, 0.25]
    return ChmmParams(**arrays)


@st.composite
def params_at_the_tolerance(draw):
    params, _ = draw(simplex_instances(max_len=1))
    return _with_simplex_sum(params, draw(st.sampled_from(FAMILIES)), draw(st.integers(0, 63)),
                             draw(st.sampled_from(_EDGE_SUMS)))


@given(st.one_of(perturbed_params(), params_at_the_tolerance()))
def test_validate_params_equals_the_per_family_reduction(params):
    assert validate_params(params) == validate_by_family(params)


@pytest.mark.parametrize("target", _EDGE_SUMS)
@pytest.mark.parametrize("family", FAMILIES)
def test_a_sum_an_ulp_from_the_tolerance_is_judged_by_its_distance_from_one(family, target):
    params = _with_simplex_sum(jittered_params(3, 4), family, 1, target)
    issues = validate_params(params)
    assert issues == validate_by_family(params)
    assert bool(issues) == (abs(target - 1.0) > SIMPLEX_ATOL)


# Entries of a numerator buffer: mostly in [0, 1] with exact zeros and subnormals, all of them scaled by
# 1e308 at times, and a few wild ones: subnormals, huge values, infinities, NaN and negatives.
_PLAIN_ENTRIES = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 1.0), st.floats(5e-324, 2.2e-308))
_WILD_ENTRIES = st.one_of(
    st.floats(5e-324, 2.2e-308), st.floats(1e300, np.finfo(float).max),
    st.sampled_from([np.inf, -np.inf, np.nan]), st.floats(-1.0, -5e-324),
)


@st.composite
def normalizations(draw):
    """A parameter buffer made by one of ``_simplex_normalize``'s callers, with the numerator it divided and
    whether the buffer it keeps rows of is known to be valid.  ``_params_by_family`` keeps rows of the layout's
    uniform buffer; ``reestimate`` keeps rows of its parent, drawn validated (valid), unvalidated (valid), or
    with an entry above 1, unvalidated or validated (a non-empty verdict)."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    size = model._layout(n, m).uniform.size
    raw = np.array(draw(st.lists(_PLAIN_ENTRIES, min_size=size, max_size=size)))
    raw *= draw(st.sampled_from([1.0, 1e308]))  # huge rows: a sum of two entries may overflow
    for _ in range(draw(st.integers(0, 2))):
        raw[draw(st.integers(0, size - 1))] = draw(_WILD_ENTRIES)
    parent = draw(st.sampled_from(["uniform", "validated", "unvalidated", "above one", "above one, validated"]))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 0 * inf, huge * huge
        if parent == "uniform":
            return model._params_by_family(n, m, lambda uniform: raw), raw, True
        arrays = {name: np.array(getattr(jittered_params(n, m, seed=draw(st.integers(0, 2**32))), name))
                  for name in FAMILIES}
        if parent.startswith("above one"):
            arrays["priors"][0, 0] = 1.5
        params = ChmmParams(**arrays)  # no verdict yet
        if parent in ("validated", "above one, validated"):
            validate_params(params)
        return reestimate(params, GradientSet(*model._views(raw, n, m))), params._buf * raw, parent == "validated"


@given(normalizations())
def test_a_recorded_verdict_is_the_verdict_worked_out(case):
    # ``_simplex_normalize`` records a valid verdict only when the kept rows are known valid and every
    # numerator entry is finite and at least 0; then it must be the verdict ``_violations`` works out.
    params, num, keep_known_valid = case
    with np.errstate(invalid="ignore", over="ignore"):
        premises = keep_known_valid and bool(np.isfinite(num).all() and (num >= 0.0).all())
        sums_finite = bool(np.isfinite(model._simplex_sums(num, params.n_states, params.n_bins)).all())
    recorded = vars(params).get("_verdict")
    if recorded is not None:
        assert premises and recorded == tuple(model._violations(params)) == ()
    else:
        # Left to ``validate_params``: a premise fails, or a simplex sum overflows.
        assert not (premises and sums_finite)


@given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2**32))
def test_initial_params_equal_four_per_family_draws(n, m, seed):
    # One block of P values in family order reads the same stream as one
    # draw per family, so the bits are those of four draws.
    rng = np.random.default_rng(seed)
    jittered = params_by_family(n, m, lambda u: u * rng.uniform(1.0 - _JITTER, 1.0 + _JITTER, size=u.shape))
    rng = np.random.default_rng((seed, 3))
    simulated = params_by_family(n, m, lambda u: rng.gamma(0.5, size=u.shape) + 1e-3)
    assert family_bytes(jittered_params(n, m, seed)) == family_bytes(jittered)
    assert family_bytes(_default_sim_params(n, m, seed)) == family_bytes(simulated)
    assert family_bytes(uniform_params(n, m)) == family_bytes(params_by_family(n, m))


def test_check_params_reports_opposite_infinities_without_a_warning():
    # +inf and -inf in one prior row sum to NaN: the caller gets the
    # ValueError listing the violations, not numpy's invalid-value warning.
    params = _with_entry("priors", (0, slice(None)), [np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            check_params(params)
    assert str(info.value) == "invalid parameters: priors: entries outside [0, 1]"


def test_params_are_immutable():
    p = uniform_params(2, 2)
    with pytest.raises(ValueError):
        p.priors[0, 0] = 0.9


def test_joint_transition_degenerate_coupling():
    rng = np.random.default_rng(1)
    p = random_params(rng, 3, 2)
    coupling = np.array([[1.0, 0.3], [0.0, 0.7]])  # chain 1 fully self-driven
    p = ChmmParams(priors=p.priors, trans=p.trans, emit=p.emit, coupling=coupling)
    for s1 in range(3):
        for s2 in range(3):
            for j in range(3):
                assert joint_transition(p, 0, s1, s2, j) == pytest.approx(p.trans[0, 0][s1, j])


def test_joint_transition_uniform_rows():
    p = uniform_params(4, 2)
    assert joint_transition(p, 0, 2, 1, 3) == pytest.approx(0.25)


def test_joint_transition_hand_value():
    # theta = (0.5, 0.5), rows (0.8, 0.2) and (0.4, 0.6) blend to (0.6, 0.4)
    trans = np.full((2, 2, 2, 2), 0.5)
    trans[0, 0, 0] = [0.8, 0.2]
    trans[1, 0, 1] = [0.4, 0.6]
    p = ChmmParams(
        priors=np.full((2, 2), 0.5),
        trans=trans,
        emit=np.full((2, 2, 2), 0.5),
        coupling=np.full((2, 2), 0.5),
    )
    assert joint_transition(p, 0, 0, 1, 0) == pytest.approx(0.6)
    assert joint_transition(p, 0, 0, 1, 1) == pytest.approx(0.4)


def test_joint_transition_rows_sum_to_one(rng):
    p = random_params(rng, 3, 2)
    for chain in range(2):
        for s1 in range(3):
            for s2 in range(3):
                total = sum(joint_transition(p, chain, s1, s2, j) for j in range(3))
                assert total == pytest.approx(1.0, abs=1e-12)


def test_joint_transition_index_errors():
    p = uniform_params(2, 2)
    with pytest.raises(IndexError):
        joint_transition(p, 0, 2, 0, 0)
    with pytest.raises(IndexError):
        joint_transition(p, 0, 0, 0, -1)
    with pytest.raises(IndexError):
        joint_transition(p, 3, 0, 0, 0)


def test_jittered_params_valid_and_seeded():
    a = jittered_params(5, 8, seed=3)
    b = jittered_params(5, 8, seed=3)
    c = jittered_params(5, 8, seed=4)
    assert validate_params(a) == []
    assert_array_equal(a.trans, b.trans)
    assert not np.array_equal(a.trans, c.trans)
    # jitter keeps entries within 5% of uniform before renormalization
    assert np.abs(a.trans - 0.2).max() < 0.05


@pytest.mark.parametrize("n, m, seed", [(1, 1, 0), (2, 3, 1), (5, 8, 42), (3, 4, (7, 2, 101)), (4, 2, 9)])
def test_jittered_params_equal_jittered_uniform_params(n, m, seed):
    # The same draws, in the same order, applied to a copy of uniform_params.
    rng = np.random.default_rng(seed)
    base = uniform_params(n, m)

    def jig(arr, axis):
        noisy = arr * rng.uniform(1.0 - 0.05, 1.0 + 0.05, size=arr.shape)
        return noisy / noisy.sum(axis=axis, keepdims=True)

    expected = (jig(np.array(base.priors), 1), jig(np.array(base.trans), 3),
                jig(np.array(base.emit), 2), jig(np.array(base.coupling), 0))
    got = jittered_params(n, m, seed=seed)
    for name, want in zip(FAMILIES, expected):
        assert getattr(got, name).tobytes() == want.tobytes()


def test_observation_sequence_validation():
    with pytest.raises(ValueError):
        ObservationSequence.from_lists([0, 1], [0])
    with pytest.raises(ValueError):
        ObservationSequence.from_lists([], [])
    with pytest.raises(ValueError):
        ObservationSequence.from_lists([-1], [0])
    obs = ObservationSequence.from_lists([0, 1, 2], [2, 1, 0])
    assert obs.length == 3
    # A bin that is not an integer in int64 range is refused, not truncated.
    for bad in ([0.7, 1], [2.5, 3.9], [1e30, 1], [float("nan"), 1], [10**30, 1], [2**63, 1]):
        with pytest.raises(ValueError, match="^observation bins must be integers in int64 range$"):
            ObservationSequence.from_lists(bad, [0, 1])
    with pytest.raises(ValueError, match="^observation bins must be integers in int64 range$"):
        ObservationSequence(np.array([[0.5, 1.0], [1.0, 2.0]]))
    # Integral floats, integer and bool arrays convert as they always did.
    assert ObservationSequence.from_lists([2.0, 3.0], [1, 0]).bins.tolist() == [[2, 3], [1, 0]]
    assert ObservationSequence.from_lists(np.array([1, 2], dtype=np.int32), [True, False]).bins.tolist() == [[1, 2], [1, 0]]
    assert ObservationSequence.from_lists([2**63 - 1], [0]).bins.tolist() == [[2**63 - 1], [0]]
    # An unsigned bin above the int64 maximum is refused, not wrapped to a negative.
    for big in (2**63, 2**64 - 1):
        with pytest.raises(ValueError, match="^observation bins must be integers in int64 range$"):
            ObservationSequence(np.array([[big, 1], [0, 1]], dtype=np.uint64))
    assert ObservationSequence(np.array([[2**63 - 1], [0]], dtype=np.uint64)).bins.tolist() == [[2**63 - 1], [0]]


def test_serialization_round_trip_is_bit_stable(rng):
    p = random_params(rng, 3, 5)
    q = params_from_text(params_to_text(p))
    for name in ("priors", "trans", "emit", "coupling"):
        assert_array_equal(getattr(p, name), getattr(q, name))


TEXT_KEYS = ["n_states", "n_bins", "prior_1", "prior_2", "trans_1_1", "trans_1_2", "trans_2_1", "trans_2_2",
             "emit_1", "emit_2", "coupling"]


@pytest.mark.parametrize("key", TEXT_KEYS)
def test_serialization_rejects_missing_key(rng, key):
    text = params_to_text(random_params(rng, 2, 2))
    broken = "\n".join(line for line in text.splitlines() if not line.startswith(key + " "))
    with pytest.raises(ValueError, match=f"^parameter text: missing key '{key}'$"):
        params_from_text(broken)


@pytest.mark.parametrize("key", ["n_states", "n_bins"])
@pytest.mark.parametrize("value", [0, -1])
def test_serialization_rejects_a_size_below_one(rng, key, value):
    lines = [f"{key} = {value}" if line.startswith(key + " ") else line
             for line in params_to_text(random_params(rng, 2, 3)).splitlines()]
    with pytest.raises(ValueError, match=f"^parameter text: key '{key}': must be at least 1, got {value}$"):
        params_from_text("\n".join(lines))


# One line per family with one value too many: (key, values expected) at N=2, M=3.
@pytest.mark.parametrize("key, count", [("prior_2", 2), ("trans_1_2", 4), ("emit_1", 6), ("coupling", 4)])
def test_serialization_rejects_wrong_value_count(rng, key, count):
    lines = [line + " 0.5" if line.startswith(key + " ") else line
             for line in params_to_text(random_params(rng, 2, 3)).splitlines()]
    with pytest.raises(ValueError, match=rf"^parameter text: key '{key}': expected {count} values, got {count + 1}$"):
        params_from_text("\n".join(lines))


def test_serialization_ignores_comments(rng):
    p = random_params(rng, 2, 2)
    text = "# fitted model\n" + params_to_text(p)
    q = params_from_text(text)
    assert_allclose(q.priors, p.priors)


def _small_backtest():
    closes = 1.0 + 0.001 * np.sin(np.arange(30))
    bars = bars_from_closes(closes)
    return run_backtest(BacktestConfig(predictor="baseline", atr_period=2, indicator_period=2), bars, bars)


_PARAMS, _OBS = uniform_params(2, 3), ObservationSequence(np.array([[0, 2, 1], [1, 1, 0]]))
ARRAY_HOLDERS = {
    "ChmmParams": lambda: uniform_params(2, 3),
    "GradientSet": lambda: likelihood_gradient(_PARAMS, _OBS),
    "ObservationSequence": lambda: ObservationSequence(_OBS.bins),
    "ForwardTrellis": lambda: forward(_PARAMS, _OBS),
    "ViterbiTrellis": lambda: coupled_viterbi(_PARAMS, _OBS),
    "FitResult": lambda: fit(_PARAMS, _OBS),
    "SampledPaths": lambda: sample_chmm(_PARAMS, 3, seed=1),
    "AlphaGradients": lambda: alpha_gradients(_PARAMS, _OBS),
    "EquityCurve": lambda: _small_backtest().equity,
    "BacktestResult": _small_backtest,
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_a_result_holding_arrays_compares_and_hashes_by_identity(make):
    x, twin = make(), make()
    assert x == x and x != twin
    assert len({x, twin}) == 2  # both hash, by identity
