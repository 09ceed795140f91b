"""Madelung (amplitude/phase) fields of a stream set, for the tests (not
collected by pytest).  The library evolves wavefunctions only; the tests
read density and flow velocity off them to check the fluid equations."""

from typing import NamedTuple

import numpy as np

from qplasma.equilibria import StreamSet, hbar_eff


class MadelungFields(NamedTuple):
    """Per-stream density and flow velocity with a vacuum mask, each
    shaped like psi.

    u is meaningless where |psi|^2 is negligible, below 1e-8 of the
    stream's maximum; those cells are flagged in `mask` (True = unreliable)
    and u is set to 0 there.
    """

    n: np.ndarray
    u: np.ndarray
    mask: np.ndarray


def madelung_decompose(streams: StreamSet) -> MadelungFields:
    """Density n_a = |psi_a|^2 and velocity u_a from the local phase
    increment hbar_eff * arg(psi(x+dx) conj(psi(x-dx))) / (2 dx), which
    needs no global phase unwrapping."""
    psi = streams.psi
    n = np.abs(psi) ** 2
    fwd = np.roll(psi, -1, axis=-1)
    bwd = np.roll(psi, 1, axis=-1)
    u = (hbar_eff(streams.H) * np.angle(fwd * np.conj(bwd))
         / (2.0 * streams.grid.dx))
    mask = n < 1e-8 * n.max(axis=-1, keepdims=True)
    return MadelungFields(n, np.where(mask, 0.0, u), mask)
