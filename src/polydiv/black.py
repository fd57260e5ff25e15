"""Black-Scholes and Black-76 prices plus a bracketed implied-vol solver."""

import math
from typing import NamedTuple

from scipy.special import ndtr

from .errors import DomainError, InvalidParameterError


VOL_CAP = 16.0     # implied_vol gives up above this volatility


def _require_finite(forward, strike, expiry, vol, rate):
    # one sum: a NaN or an infinity in any input makes it non-finite
    if not math.isfinite(forward + strike + expiry + vol + rate):
        raise InvalidParameterError(f"need finite inputs, got forward {forward}, strike "
                                    f"{strike}, expiry {expiry}, vol {vol}, rate {rate}")
    if expiry < 0:
        raise InvalidParameterError(f"need expiry >= 0, got {expiry}")


def _exp(name, exponent):
    """``math.exp(exponent)``; an overflow raises InvalidParameterError naming it."""
    try:
        return math.exp(exponent)
    except OverflowError:
        raise InvalidParameterError(
            f"the {name} exponent {exponent:.6g} overflows a float") from None


def _call(forward, strike, discount, log_moneyness, s):
    """d1 and the discounted Black-76 call at total vol s = vol sqrt(expiry) > 0."""
    d1 = (log_moneyness + 0.5 * s * s) / s
    return d1, discount * (forward * ndtr(d1) - strike * ndtr(d1 - s))


def black76_price(forward, strike, expiry, vol, rate, kind="call"):
    """Lognormal option price on a futures/forward level; at expiry 0 or vol
    0 the discounted intrinsic value, and a negative expiry raises."""
    _require_finite(forward, strike, expiry, vol, rate)
    if forward <= 0 or strike <= 0:
        raise InvalidParameterError("forward and strike must be positive")
    discount = _exp("discount", -rate * expiry)
    if vol <= 0 or expiry == 0:
        call = discount * max(forward - strike, 0.0)
    else:
        s = vol * math.sqrt(expiry)
        call = _call(forward, strike, discount, math.log(forward / strike), s)[1]
    if kind == "call":
        return call
    if kind == "put":
        return call - discount * (forward - strike)
    raise InvalidParameterError(f"unknown option kind {kind!r}")


class Black76Derivatives(NamedTuple):
    """First derivatives of a Black-76 price in the forward, the strike and the vol."""

    forward: float
    strike: float
    vega: float


def black76_derivatives(forward, strike, expiry, vol, rate, kind="call"):
    """:class:`Black76Derivatives` of ``black76_price``; needs vol, expiry > 0."""
    _require_finite(forward, strike, expiry, vol, rate)
    if not (forward > 0 and strike > 0 and vol > 0 and expiry > 0):
        raise InvalidParameterError("need positive forward, strike, vol and expiry")
    discount = _exp("discount", -rate * expiry)
    s = vol * math.sqrt(expiry)
    d1 = _call(forward, strike, discount, math.log(forward / strike), s)[0]
    itm_forward, itm_strike = ndtr(d1), ndtr(d1 - s)      # the call's; a put's are 1 less
    if kind == "put":
        itm_forward, itm_strike = itm_forward - 1.0, itm_strike - 1.0
    elif kind != "call":
        raise InvalidParameterError(f"unknown option kind {kind!r}")
    density = math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
    return Black76Derivatives(forward=discount * float(itm_forward),
                              strike=-discount * float(itm_strike),
                              vega=discount * forward * math.sqrt(expiry) * density)


def black_scholes_price(spot, strike, expiry, vol, rate, dividend_yield=0.0, kind="call"):
    """Standard lognormal option price on a spot with continuous dividend yield:
    Black-76 on the forward spot * exp((rate - dividend_yield) * expiry)."""
    if spot <= 0 or strike <= 0:
        raise InvalidParameterError("spot and strike must be positive")
    if expiry < 0:
        raise InvalidParameterError(f"need expiry >= 0, got {expiry}")
    forward = spot * _exp("forward", (rate - dividend_yield) * expiry)
    return black76_price(forward, strike, expiry, vol, rate, kind)


def implied_vol(price, level, strike, expiry, rate, convention="black-scholes",
                dividend_yield=0.0, kind="call"):
    """Invert a lognormal price to its volatility by bracketed root solving.

    ``level`` is the spot (convention "black-scholes") or the forward
    (convention "black76").  Prices at or below intrinsic return 0;
    prices outside the no-arbitrage band raise :class:`DomainError`, and so
    does a price above intrinsic at expiry 0.  A negative expiry raises.
    """
    if not math.isfinite(price + level + strike + expiry + rate + dividend_yield):
        raise InvalidParameterError(
            f"need finite inputs, got price {price}, level {level}, strike {strike}, "
            f"expiry {expiry}, rate {rate}, dividend yield {dividend_yield}")
    if expiry < 0:
        raise InvalidParameterError(f"need expiry >= 0, got {expiry}")
    if convention == "black-scholes":
        forward = level * _exp("forward", (rate - dividend_yield) * expiry)
    elif convention == "black76":
        forward = level
    else:
        raise InvalidParameterError(f"unknown convention {convention!r}")

    discount = _exp("discount", -rate * expiry)
    if kind == "call":
        intrinsic = discount * max(forward - strike, 0.0)
        upper = discount * forward
    elif kind == "put":
        intrinsic = discount * max(strike - forward, 0.0)
        upper = discount * strike
    else:
        raise InvalidParameterError(f"unknown option kind {kind!r}")

    slack = 1e-12 * max(1.0, upper)
    if price < intrinsic - slack or price > upper + slack:
        raise DomainError(
            f"price {price:.6g} outside no-arbitrage bounds [{intrinsic:.6g}, {upper:.6g}]"
        )
    if price <= intrinsic + slack:
        return 0.0
    if expiry == 0:
        raise DomainError(f"price {price:.6g} lies above intrinsic {intrinsic:.6g}, but a "
                          "price at expiry has no time value")

    # imported on first use: scipy.optimize is about a third of a cold start
    from scipy.optimize import brentq

    lo, hi = 1e-12, 0.5
    # black76_price at each vol of the search, its checks made once, at its
    # first vol, and its vol-free parts made once: the same bits as the call
    _require_finite(forward, strike, expiry, hi, rate)
    if forward <= 0 or strike <= 0:
        raise InvalidParameterError("forward and strike must be positive")
    root_t, log_moneyness = math.sqrt(expiry), math.log(forward / strike)
    parity = discount * (forward - strike) if kind == "put" else 0.0   # call - 0.0 is call

    def price_at(v):
        return _call(forward, strike, discount, log_moneyness, v * root_t)[1] - parity

    while price_at(hi) < price:
        hi *= 2.0
        if hi > VOL_CAP:
            raise DomainError(f"implied volatility exceeds cap {VOL_CAP}")
    vol = brentq(lambda v: price_at(v) - price, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return float(vol)
