"""An independent reference of the slot, written from the paper's
formulas one agent at a time, for differential tests of the fast path.

It calls only `market`'s reference formulas and shares no loop code with
`market.clearing_rounds` or `market.agent_step`. So far it covers the
clearing loop and the codec's rounding rule; shares, commitments and
detection are still to come.
"""

from gridshare import market
from gridshare.errors import EncodingRangeError


def agent_update(profile, v_lo, v_hi, E, gamma, zeta):
    """One agent's update by the reference formulas: `update_duals`, then
    `update_energy` (price and preference swapped for a buyer), then
    `signed_trade`. Returns the new v_lo, v_hi and E, and the trade."""
    v_lo, v_hi = market.update_duals(v_lo, v_hi, E, abs(profile.E_n_tot),
                                     zeta)
    price, preference = ((gamma, profile.psi) if profile.role == market.SELLER
                         else (profile.psi, gamma))
    E = market.update_energy(E, price, zeta, preference, profile.chi, v_lo,
                             v_hi)
    return v_lo, v_hi, E, market.signed_trade(
        market.AgentState(profile, v_lo, v_hi, E))


def clearing(profiles, config, total_of, worst_case=False):
    """The clearing loop, one agent at a time. Per round each agent runs
    `agent_update`; `total_of` sums the trades; then `update_price` and
    `check_convergence` on k + 1, the round that would run next. Yields
    (k, gamma, total, status, states) per round, where `states` holds
    each agent's (v_lo, v_hi, E) after the round, and stops after the
    first round whose status is not CONTINUE."""
    states = [(p.v_lo_init, p.v_hi_init, 0.0) for p in profiles]
    gamma, k, status = config.gamma_init, 0, market.CONTINUE
    while status == market.CONTINUE:
        k += 1
        updates = [agent_update(p, *state, gamma, config.zeta)
                   for p, state in zip(profiles, states)]
        states = [update[:3] for update in updates]
        total = total_of([update[3] for update in updates])
        gamma_new = market.update_price(gamma, config.zeta, total)
        status = market.check_convergence(gamma_new, gamma, k + 1, config,
                                          worst_case)
        gamma = gamma_new
        yield k, gamma, total, status, states


def encode(x, scale, modulus):
    """One value's fixed-point encoding, round(x*scale) mod `modulus` with
    half away from zero, by the per-value formula that
    `FixedPointCodec.encode_all` replaced."""
    scaled = x * scale
    try:
        m = int(abs(scaled) + 0.5)
    except (ValueError, OverflowError):     # NaN, +-inf
        raise EncodingRangeError(f"cannot encode {x!r}") from None
    if 2 * m >= modulus:
        raise EncodingRangeError(
            f"|{x}| * {scale} exceeds the centered range of "
            f"modulus {modulus}")
    if scaled < 0:
        m = -m
    return m % modulus
