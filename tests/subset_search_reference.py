"""The exhaustive subset search that the lattice search of
heckefam.blocks replaced, in Python integers: every vector of the box below
phi is tested, in itertools.product order.  Tests compare the lattice search
against it."""

from itertools import product


def passes(s, rows, moduli) -> bool:
    """Whether sum_i s_i rows[i][j] = 0 mod moduli[j] for every j."""
    return all(
        sum(si * row[j] for si, row in zip(s, rows)) % mod == 0
        for j, mod in enumerate(moduli)
    )


def find_integral_subvector(rows, moduli, phi):
    """The first vector 0 < s < phi in product order that passes, or None
    when none does; rows[i] belongs to the i-th nonzero entry of phi.
    Raises ValueError when phi itself fails, since None proves
    indecomposability only for a phi that passes."""
    support = [i for i, m in enumerate(phi) if m]
    mults = tuple(phi[i] for i in support)
    if not passes(mults, rows, moduli):
        raise ValueError(f"{tuple(phi)} fails the integrality test itself")
    for s in product(*(range(m + 1) for m in mults)):
        if any(s) and s != mults and passes(s, rows, moduli):
            sub = [0] * len(phi)
            for i, x in zip(support, s):
                sub[i] = x
            return tuple(sub)
    return None
