"""Pricing engine for a joint stock-price / dividend-rate polynomial diffusion.

Closed-form moments and futures prices via generator matrix exponentials,
option prices via maximum-entropy moment matching, Monte-Carlo
cross-validation, and calibration to a dividend-futures strip plus ATM
implied volatilities.
"""

__version__ = "0.1.0"

from .black import black76_price, black_scholes_price, implied_vol
from .calibration import (
    CalibConfig,
    CalibResult,
    DividendIvQuote,
    FuturesQuote,
    MarketData,
    StockIvQuote,
    calibrate,
    objective,
    pricing_errors,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    InadmissibleParamsError,
    InfeasibleMomentsError,
    InvalidParameterError,
    MarketDataError,
    NumericError,
    PolydivError,
)
from .generator import (
    MultiIndex,
    PolyBasis,
    apply_generator_pointwise,
    build_basis,
    build_generator,
    eval_basis,
)
from .maxent import (
    MaxEntDensity,
    OptionSpec,
    fit_maxent,
    integrate_payoff,
    price_dividend_option,
    price_option,
    price_stock_option,
)
from .mc import (
    McEstimate,
    PathBundle,
    SimConfig,
    YieldStats,
    martingale_diagnostic,
    mc_price,
    simulate_paths,
    yield_path_stats,
)
from .model import (
    AdmissibilityReport,
    JumpSpec,
    ModelParams,
    PointMass,
    State,
    StateSpaceReport,
    TwoPoint,
    dividend_rate,
    dividend_yield,
    in_state_space,
    jump_moment,
    validate_admissibility,
)
from .moments import (
    MomentSet,
    PresentValue,
    conditional_moments,
    cumulative_dividend_moments,
    dividend_futures,
    expm_apply,
    futures_strip,
    pv_dividends,
    pv_dividends_limit,
    stock_futures,
    stock_price_moments,
)
