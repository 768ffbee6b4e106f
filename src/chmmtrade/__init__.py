"""Coupled two-chain HMM indicator forecasting and backtesting."""

from .model import (
    ChmmParams,
    ObservationSequence,
    joint_transition,
    jittered_params,
    load_params,
    params_from_text,
    params_to_text,
    save_params,
    uniform_params,
    validate_params,
)
from .inference import ForwardTrellis, ViterbiTrellis, coupled_viterbi, forward
from .training import (
    DegenerateModelError,
    FitConfig,
    FitResult,
    GradientSet,
    fit,
    likelihood_gradient,
    reestimate,
)
from .indicators import (
    CCI_DISCRETIZER,
    RSI_DISCRETIZER,
    Discretizer,
    OhlcSeries,
    atr,
    bin_value,
    cci,
    discretize,
    rsi,
    sma,
    true_range,
)
from .strategy import (
    allocation_fraction,
    crossing_side,
    next_state_marginal,
    next_state_viterbi,
    predict_observation,
)
from .backtest import (
    BacktestConfig,
    BacktestResult,
    ComparisonResult,
    Diagnostics,
    EquityCurve,
    PerfStats,
    TradeRecord,
    compare_predictors,
    perf_stats,
    run_backtest,
    stats_from_ret_vol,
)
from .oracle import (
    AlphaGradients,
    SampledPaths,
    alpha_gradients,
    brute_likelihood,
    brute_viterbi,
    fd_gradient,
    permutation_aligned_mae,
    sample_chmm,
    synthetic_ohlc,
)

__version__ = "0.1.0"
