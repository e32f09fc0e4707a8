"""Two-level reduced density matrix as four complex elements / eight real components."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

_NORM_TOL = 1e-12


class Component(IntEnum):
    """Fixed ordering of the eight real components used by the control cycle.

    The cycle corrects one component per step, in exactly this order. The
    ordering itself is a convention, but every part of the package (ledger,
    solver, trajectory rows, CSV) must use the same one.
    """

    RHO11_RE = 0
    RHO11_IM = 1
    RHO12_RE = 2
    RHO12_IM = 3
    RHO21_RE = 4
    RHO21_IM = 5
    RHO22_RE = 6
    RHO22_IM = 7


COMPONENT_LABELS = tuple(c.name.lower() for c in Component)


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 complex density matrix (rho11, rho12, rho21, rho22).

    Immutable value type; all evolution maps return new instances. Hermiticity
    is guaranteed only for matrices built via `from_pure_state` — evolution in
    the thermal regime may produce non-Hermitian bookkeeping states and the
    type deliberately does not forbid them.
    """

    rho11: complex
    rho12: complex
    rho21: complex
    rho22: complex

    @classmethod
    def from_pure_state(cls, c1: complex, c2: complex) -> "DensityMatrix":
        """Build |psi><psi| for psi = c1|1> + c2|2>. Amplitudes must be normalized."""
        norm = abs(c1) ** 2 + abs(c2) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(
                f"amplitudes not normalized: |c1|^2+|c2|^2 = {norm!r} "
                f"deviates from 1 by {norm - 1.0:.3e} (tolerance {_NORM_TOL:g})"
            )
        r12 = c1 * c2.conjugate()
        return cls(
            rho11=complex(abs(c1) ** 2),
            rho12=r12,
            rho21=r12.conjugate(),
            rho22=complex(abs(c2) ** 2),
        )

    def components(self) -> tuple[float, ...]:
        """The eight real components in the fixed `Component` order."""
        return (
            self.rho11.real,
            self.rho11.imag,
            self.rho12.real,
            self.rho12.imag,
            self.rho21.real,
            self.rho21.imag,
            self.rho22.real,
            self.rho22.imag,
        )

    def component(self, idx: int) -> float:
        return self.components()[Component(idx)]

    def trace(self) -> complex:
        return self.rho11 + self.rho22

    def hermitized(self) -> "DensityMatrix":
        """Force rho21 = conj(rho12); used by the optional hermitize output mode."""
        return DensityMatrix(self.rho11, self.rho12, self.rho12.conjugate(), self.rho22)
