"""Distributed market clearing: per-agent dual/energy updates, the
operator's price update, convergence testing, and scenario sampling.

Sellers follow the reference drift (psi - gamma + v_lo - v_hi)/chi; buyers
run the sign-mirror (gamma - psi + v_lo - v_hi)/chi and enter the
operator's sum negated, so the sum measures supply-demand imbalance and
the price iteration has a stable root.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import (
    DegeneratePreferenceError,
    EncodingRangeError,
    InvalidConfigError,
)

SELLER = "seller"
BUYER = "buyer"

# Reference sampling ranges for community scenarios.
V_LO_RANGE = (0.0, 5.0)
V_HI_RANGE = (3.0, 20.0)
CHI_RANGE = (0.09, 0.1)
PSI_RANGE = (24.0, 38.0)
E_TOT_RANGE = (0.0, 20.0)


@dataclass(frozen=True)
class TAProfile:
    """One agent's market parameters: forecast, dual initializers, and
    the linear/quadratic preference coefficients. All are finite, and a
    seller's forecast is >= 0 and a buyer's <= 0."""

    index: int
    role: str
    E_n_tot: float          # signed forecast; > 0 surplus, < 0 deficit
    v_lo_init: float
    v_hi_init: float
    psi: float
    chi: float

    def __post_init__(self):
        if self.role not in (SELLER, BUYER):
            raise InvalidConfigError(f"unknown role {self.role!r}")
        if self.chi <= 0:
            raise DegeneratePreferenceError("chi must be > 0")
        if not all(map(math.isfinite, (self.E_n_tot, self.v_lo_init,
                                       self.v_hi_init, self.psi, self.chi))):
            raise InvalidConfigError(
                f"TA {self.index}: E_n_tot, v_lo_init, v_hi_init, psi and "
                "chi must be finite")
        if self.E_n_tot < 0 if self.role == SELLER else self.E_n_tot > 0:
            raise InvalidConfigError(
                f"TA {self.index}: a {self.role} cannot have E_n_tot "
                f"{self.E_n_tot}")


@dataclass(frozen=True)
class MarketConfig:
    zeta: float = 0.01
    epsilon: float = 0.001
    varsigma: int = 100
    gamma_init: float = 10.0

    def __post_init__(self):
        # NaN fails every comparison, so it lands in the error branch.
        if not (0 < self.zeta < math.inf and 0 < self.epsilon < math.inf
                and math.isfinite(self.gamma_init) and self.varsigma >= 1):
            raise InvalidConfigError(
                "require finite zeta > 0, epsilon > 0 and gamma_init, "
                "and varsigma >= 1")


@dataclass
class AgentState:
    """Per-iteration negotiation state of one agent."""

    profile: TAProfile
    v_lo: float = 0.0
    v_hi: float = 0.0
    E: float = 0.0

    @classmethod
    def initial(cls, profile):
        return cls(profile=profile, v_lo=profile.v_lo_init,
                   v_hi=profile.v_hi_init, E=0.0)


def update_duals(v_lo, v_hi, E, E_n_tot, zeta):
    """Projected multiplier steps for the lower and upper trade bounds."""
    v_lo_new = max(0.0, v_lo - zeta * E)
    v_hi_new = max(0.0, v_hi + zeta * (E - E_n_tot))
    return v_lo_new, v_hi_new


def update_energy(E, gamma, zeta, psi, chi, v_lo, v_hi):
    """Projected relaxation of traded energy toward its dual-adjusted
    best response."""
    if chi == 0:
        raise DegeneratePreferenceError("chi must be nonzero")
    drift = (psi - gamma + v_lo - v_hi) / chi
    return max(0.0, E + zeta * (drift - E))


def update_price(gamma, zeta, sum_E):
    """Projected price step against the signed market imbalance."""
    return max(0.0, gamma + zeta * sum_E)


def agent_rows(states):
    """The rows `agent_step` reads, built once per clearing loop: each
    state with its role as `seller`, its psi and chi, and |E_n_tot|."""
    return [(st, st.profile.role == SELLER, st.profile.psi, st.profile.chi,
             abs(st.profile.E_n_tot)) for st in states]


def agent_step(agents, gamma, zeta, codec=None):
    """One round of every agent's update over `agent_rows`: per agent,
    `update_duals`, then `update_energy` (price and preference swapped
    for a buyer), with the same float operations in the same order.
    Writes each state in place and returns the agents' `signed_trade`s.

    With a `sharing.FixedPointCodec`, each trade comes back as the signed
    integer round(trade*scale), halves away from zero, in the same pass:
    its residue mod the codec's modulus is what `encode_all` gives, and
    a trade `encode_all` rejects raises EncodingRangeError.
    """
    scale = None if codec is None else codec.scale
    half = None if codec is None else (codec.modulus + 1) // 2
    trades = []
    append = trades.append
    try:
        for st, seller, psi, chi, magnitude in agents:
            E = st.E
            # `x if x > 0.0 else 0.0` is `max(0.0, x)` for every float,
            # -0.0 and NaN included, without the builtin call. TAProfile
            # rejects chi <= 0.
            v_lo = st.v_lo - zeta * E
            v_lo = v_lo if v_lo > 0.0 else 0.0
            v_hi = st.v_hi + zeta * (E - magnitude)
            v_hi = v_hi if v_hi > 0.0 else 0.0
            if seller:
                E += zeta * ((psi - gamma + v_lo - v_hi) / chi - E)
            else:
                E += zeta * ((gamma - psi + v_lo - v_hi) / chi - E)
            E = E if E > 0.0 else 0.0
            st.v_lo, st.v_hi, st.E = v_lo, v_hi, E
            if scale is None:
                append(E if seller else -E)
                continue
            # E is >= 0 and not NaN, so this is int(|trade*scale| + 0.5).
            m = int(E * scale + 0.5)
            if m >= half:
                raise EncodingRangeError(
                    f"|{E}| * {scale} exceeds the centered range of "
                    f"modulus {codec.modulus}")
            append(m if seller else -m)
    except OverflowError:                   # E*scale is +inf
        raise EncodingRangeError(f"cannot encode {E if seller else -E!r}"
                                 ) from None
    return trades


def signed_trade(state):
    """The agent's contribution to the operator's sum: sellers positive,
    buyers negative."""
    return state.E if state.profile.role == SELLER else -state.E


CONTINUE = "continue"
CONVERGED = "converged"
ITERATION_CAP = "iteration_cap"


def check_convergence(gamma_new, gamma_old, k, config, worst_case=False):
    """Stop on a small price move, or once `k`, the round that would run
    next, passes the cap; in the worst case only the cap stops the loop."""
    if worst_case:
        return CONTINUE if k <= config.varsigma else ITERATION_CAP
    if abs(gamma_new - gamma_old) < config.epsilon:
        return CONVERGED
    if k > config.varsigma:
        return ITERATION_CAP
    return CONTINUE


def sample_profiles(n_tas, rng):
    """Draw a balanced community (half sellers, half buyers) uniformly
    from the standard parameter ranges."""
    if n_tas < 2 or n_tas % 2 != 0:
        raise InvalidConfigError("n_tas must be even and >= 2")
    profiles = []
    for i in range(n_tas):
        role = SELLER if i < n_tas // 2 else BUYER
        magnitude = rng.uniform(*E_TOT_RANGE)
        profiles.append(TAProfile(
            index=i,
            role=role,
            E_n_tot=magnitude if role == SELLER else -magnitude,
            v_lo_init=rng.uniform(*V_LO_RANGE),
            v_hi_init=rng.uniform(*V_HI_RANGE),
            psi=rng.uniform(*PSI_RANGE),
            chi=rng.uniform(*CHI_RANGE),
        ))
    return profiles


@dataclass
class ClearingResult:
    gamma: float
    iterations: int
    status: str
    energies: list = field(default_factory=list)


def clearing_rounds(states, config, aggregate, worst_case=False,
                    codec=None):
    """The one clearing loop: each round one `agent_step` call, looked up
    through the module, steps every agent at the price and returns its
    trades, fixed-point integers from `codec` if one is given;
    `aggregate` maps them to the imbalance in kWh, and the price moves
    against it. Yields (k, new gamma, imbalance, status) per round, with
    every state already at that round, and stops after the first round
    whose status is not CONTINUE."""
    rows = agent_rows(states)
    gamma, k, status = config.gamma_init, 0, CONTINUE
    while status == CONTINUE:
        k += 1
        total = aggregate(agent_step(rows, gamma, config.zeta, codec))
        gamma_new = update_price(gamma, config.zeta, total)
        status = check_convergence(gamma_new, gamma, k + 1, config,
                                   worst_case)
        gamma = gamma_new
        yield k, gamma, total, status


def _float_sum(trades):
    # Left to right from 0.0: float sum() is compensated from CPython 3.12.
    total = 0.0
    for t in trades:
        total += t
    return total


def central_clearing(profiles, config, quantize=None, worst_case=False):
    """Run `clearing_rounds` centrally (no sharing, no transport) and
    return its last round.

    `quantize`, a `sharing.FixedPointCodec`, optionally has each round's
    trades quantized in the agent step, as the shared pipeline does,
    which makes the two price trajectories bit-identical.
    """
    states = [AgentState.initial(p) for p in profiles]
    aggregate = _float_sum if quantize is None else (
        lambda trades: quantize.decode(sum(trades)))
    *_, (k, gamma, _, status) = clearing_rounds(states, config, aggregate,
                                                worst_case, quantize)
    return ClearingResult(gamma=gamma, iterations=k, status=status,
                          energies=[signed_trade(s) for s in states])


def random_source(seed, label=""):
    """Deterministic child generator for a (seed, label) pair."""
    return random.Random(f"{seed}/{label}")
