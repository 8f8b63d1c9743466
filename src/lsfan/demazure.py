"""Independent character and dimension oracle.

Demazure characters are computed by iterating the isobaric divided difference
operators D_i along a reduced word; dimensions come from the Weyl dimension
formula.  Nothing here touches paths, tableaux or posets, so these routines
can cross-check the combinatorial enumerations.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .rootdata import InvariantError, RootDatum
from .weyl import Coset, WeylGroup

__all__ = ["demazure_character", "demazure_dimension", "weyl_dimension", "character_of_irrep"]


def _require_dominant(mu) -> None:
    if any(x < 0 for x in mu):
        raise ValueError(f"weight {mu} is not dominant")


def demazure_operator(group: WeylGroup, i: int, char: dict) -> dict:
    """Apply D_i to a formal sum of exponentials e^nu (sparse dict nu -> mult).

    On a single term with m = <nu, alpha_i^vee>:
      m >= 0   contributes nu, nu - alpha_i, ..., s_i(nu);
      m = -1   contributes nothing;
      m <= -2  contributes -(nu + alpha_i), ..., -(s_i(nu) - ... ) exclusive.
    """
    alpha = group.datum.root_omega_coords(
        tuple(1 if j == i - 1 else 0 for j in range(group.rank))
    )
    out: dict = {}

    def add(nu, mult):
        new = out.get(nu, 0) + mult
        if new:
            out[nu] = new
        else:
            out.pop(nu, None)

    for nu, mult in char.items():
        m = nu[i - 1]
        if m >= 0:
            for k in range(m + 1):
                add(tuple(x - k * a for x, a in zip(nu, alpha)), mult)
        elif m <= -2:
            for k in range(1, -m):
                add(tuple(x + k * a for x, a in zip(nu, alpha)), -mult)
    return out


def demazure_character(group: WeylGroup, mu, tau: Coset) -> dict:
    """Weight multiset of the Demazure module to (mu, tau), as dict nu -> mult.

    mu is dominant in omega-coordinates; tau may live in any quotient W/W_P
    with W_P contained in the stabilizer of mu and is projected there.
    """
    _require_dominant(mu)
    stab = group.stabilizer_parabolic(mu)
    if not tau.parabolic <= stab:
        raise ValueError("tau's parabolic does not fix mu")
    tau_mu = group.pi(tau, stab)
    word = group.reduced_word(tau_mu.rep)
    char = {tuple(mu): 1}
    for i in reversed(word):
        char = demazure_operator(group, i, char)
    if any(m <= 0 for m in char.values()):
        raise InvariantError(f"character of {tuple(mu)} has a multiplicity <= 0")
    return char


def demazure_dimension(group: WeylGroup, mu, tau: Coset) -> int:
    return sum(demazure_character(group, mu, tau).values())


def weyl_dimension(datum: RootDatum, mu) -> int:
    """dim V(mu) = prod over positive roots of <mu+rho, beta^vee>/<rho, beta^vee>."""
    _require_dominant(mu)
    rho = datum.rho()
    mu_rho = tuple(x + 1 for x in mu)
    coroots = datum.positive_coroots
    num = prod(datum.pairing(mu_rho, coroot) for coroot in coroots)
    den = prod(datum.pairing(rho, coroot) for coroot in coroots)
    if num % den:
        raise InvariantError(f"dim V({tuple(mu)}) = {Fraction(num, den)} is not an integer")
    return num // den


def character_of_irrep(group: WeylGroup, mu) -> dict:
    """Full character of V(mu): the Demazure character at the longest element."""
    stab = group.stabilizer_parabolic(mu)
    return demazure_character(group, mu, group.coset(group.longest, stab))
