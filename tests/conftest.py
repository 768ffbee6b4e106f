from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from chmmtrade import ChmmParams, ObservationSequence, OhlcSeries
from chmmtrade.model import _family_shapes

T0 = datetime(2013, 1, 1, tzinfo=timezone.utc)

# Every property test draws the same fixed examples on every run.
settings.register_profile("chmmtrade", max_examples=200, deadline=None, derandomize=True, database=None)
settings.load_profile("chmmtrade")


def random_params(rng, n, m, low=0.2):
    """Row-stochastic parameters with interior entries (no zeros)."""

    def rows(shape, axis):
        raw = rng.uniform(low, 1.0, size=shape)
        return raw / raw.sum(axis=axis, keepdims=True)

    return ChmmParams(
        priors=rows((2, n), 1),
        trans=rows((2, 2, n, n), 3),
        emit=rows((2, n, m), 2),
        coupling=rows((2, 2), 0),
    )


def sparse_params(rng, n, m, zeros):
    """Parameters of N states and M bins, each entry 0 with probability
    ``zeros`` and an all-zero simplex uniform."""

    def rows(shape, axis):
        raw = rng.uniform(0.0, 1.0, size=shape) * (rng.random(shape) >= zeros)
        raw[(raw.sum(axis=axis, keepdims=True) == 0).repeat(shape[axis], axis=axis)] = 1.0
        return raw / raw.sum(axis=axis, keepdims=True)

    return ChmmParams(*[rows(shape, axis) for shape, axis in zip(_family_shapes(n, m), (1, 3, 2, 0))])


def family_bytes(params):
    """The bytes of each family of a ``ChmmParams``, for bit-equality."""
    return tuple(getattr(params, name).tobytes() for name in ("priors", "trans", "emit", "coupling"))


def random_obs(rng, m, t_len):
    return ObservationSequence(rng.integers(0, m, size=(2, t_len)))


@st.composite
def simplex_instances(draw, max_len=12):
    """Parameters from small integer weights, so exact zeros are common
    (and every all-zero simplex falls back to uniform), N = 1 included;
    sequences of 1 to ``max_len`` steps."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    t_len = draw(st.integers(1, max_len))

    def rows(shape, axis):
        size = int(np.prod(shape))
        raw = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)), dtype=float)
        raw = raw.reshape(shape)
        raw[(raw.sum(axis=axis, keepdims=True) == 0).repeat(shape[axis], axis=axis)] = 1.0
        return raw / raw.sum(axis=axis, keepdims=True)

    p = ChmmParams(
        priors=rows((2, n), 1),
        trans=rows((2, 2, n, n), 3),
        emit=rows((2, n, m), 2),
        coupling=rows((2, 2), 0),
    )
    bins = draw(st.lists(st.integers(0, m - 1), min_size=2 * t_len, max_size=2 * t_len))
    return p, ObservationSequence(np.array(bins).reshape(2, t_len))


def bars_from_closes(closes, start_time=T0, bar_minutes=10):
    """Zero-wick bars: open = previous close, high/low = body ends."""
    closes = np.asarray(closes, dtype=float)
    opens = np.concatenate((closes[:1], closes[:-1]))
    stamps = [start_time + timedelta(minutes=bar_minutes * i) for i in range(closes.size)]
    return OhlcSeries(stamps, opens, np.maximum(opens, closes), np.minimum(opens, closes), closes)


def replace_after(bars, cutoff_index, tail):
    """``bars`` with every row after the cutoff taken from ``tail``, on
    the original timestamps."""
    head = bars[: cutoff_index + 1]
    columns = ("open", "high", "low", "close")
    return OhlcSeries(bars.timestamps, *(np.concatenate((getattr(head, f), getattr(tail, f))) for f in columns))


@pytest.fixture
def rng():
    return np.random.default_rng(20130610)
