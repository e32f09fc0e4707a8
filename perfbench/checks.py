"""Checks of one run's CSV against properties of the method and independent recomputation.

Nothing here compares with a stored copy of an earlier output. A run is right
when, at every step:

- the column layout, step numbers and tau = step * T are as specified;
- `unitary` is the initial state |psi><psi| built here from (c1, c2);
- the component corrected at that step is back at its initial value;
- `uncontrolled` is the closed-form free decay under the reference kernel;
- (adiabatic) `controlled` is U D_g(rho0) U^dagger with U = exp(i I sigma_x),
  I the applied pulse sum since that component's last reset and D_g the
  e^-g damping of the off-diagonals, computed with numpy 2x2 matrices;
- `applied_I` is `solved_I + delta_I * xi` bit for bit, xi being the
  standard-normal stream of PCG64(seed) (and equal to `solved_I` without noise);
- with noise, the mean deviation of controlled `rho12_im` from the unitary
  reference stays below that of free decay (acceptance criterion 8);
- every solve that was not degenerate has |root_residual| <= root_tol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LABELS = ("rho11_re", "rho11_im", "rho12_re", "rho12_im",
          "rho21_re", "rho21_im", "rho22_re", "rho22_im")
COLUMNS = ("unitary", "uncontrolled", "controlled", "solved_I", "applied_I")
TOL = 1e-9
STEPS = 80
ROOT_TOL = 1e-12
# bath parameters shared by every preset and sweep point
MODEL = dict(gamma=1.0, n=3, omega_c=10.0, beta0=1.0, omega12=1.0)


@dataclass(frozen=True)
class Spec:
    """One scenario as the benchmark states it, independent of the program's presets."""

    regime: str
    step_T: float
    c1: complex
    c2: complex
    delta_I: float = 0.0
    seed: int = 12345

    def taus(self) -> list[float]:
        return [k * self.step_T for k in range(STEPS + 1)]

    def rho0(self) -> np.ndarray:
        psi = np.array([self.c1, self.c2], dtype=complex)
        return np.outer(psi, psi.conj())


def components(rho: np.ndarray) -> np.ndarray:
    """(..., 2, 2) complex -> (..., 8) real in the program's component order."""
    flat = rho.reshape(rho.shape[:-2] + (4,))
    return np.stack([flat.real, flat.imag], axis=-1).reshape(rho.shape[:-2] + (8,))


def read_csv(path: str) -> tuple[dict, dict]:
    """Metadata block and the data columns of a trajectory CSV, by header name."""
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, sep, value = line[2:].partition(" = ")
                meta[key if sep else line[2:]] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ValueError("no header line")
    cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    return meta, cols


def _damped(spec: Spec, g: np.ndarray) -> np.ndarray:
    """D_g(rho0): off-diagonals times e^-g, one 2x2 matrix per entry of g."""
    out = np.broadcast_to(spec.rho0(), g.shape + (2, 2)).copy()
    out[..., 0, 1] *= np.exp(-g)
    out[..., 1, 0] *= np.exp(-g)
    return out


def _free_decay(spec: Spec, g: np.ndarray) -> np.ndarray:
    out = _damped(spec, g)
    if spec.regime == "thermal":
        rho0 = spec.rho0()
        d = (rho0[0, 0] - rho0[1, 1]).real * np.exp(-2.0 * g)
        out[..., 0, 0] = 0.5 * (1.0 + d)
        out[..., 1, 1] = 0.5 * (1.0 - d)
    return components(out)


def _adiabatic_controlled(spec: Spec, g: np.ndarray, pulse: np.ndarray) -> np.ndarray:
    c, s = np.cos(pulse), np.sin(pulse)
    u = np.empty(g.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = c
    u[..., 0, 1] = u[..., 1, 0] = 1j * s
    return components(u @ _damped(spec, g) @ np.conj(np.swapaxes(u, -1, -2)))


def check_run(spec: Spec, path: str, g_ref: np.ndarray, pulses=None) -> list[str]:
    """Every way the run at `path` departs from `spec`; empty when it is right."""
    try:
        meta, cols = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable CSV: {exc}"]
    problems = []
    steps, n = STEPS, STEPS * 8
    expected_meta = {"regime": spec.regime, "step_T": repr(spec.step_T),
                     "delta_I": repr(spec.delta_I), "seed": str(spec.seed)}
    for key, value in expected_meta.items():
        if meta.get(key) != value:
            problems.append(f"metadata {key} = {meta.get(key)!r}, expected {value!r}")
    missing = [c for c in ("step", "tau", "component") + COLUMNS if c not in cols]
    if missing or len(cols["step"]) != n:
        return problems + [f"expected {n} rows with columns {COLUMNS}, "
                           f"got {len(cols.get('step', []))} rows, missing {missing}"]
    step = np.array([int(v) for v in cols["step"]]).reshape(steps, 8)
    if not (step == np.arange(1, steps + 1)[:, None]).all():
        problems.append("rows are not steps 1..N with eight components each")
    if tuple(cols["component"][:8]) != LABELS or len(set(
            tuple(cols["component"][i:i + 8]) for i in range(0, n, 8))) != 1:
        problems.append("component labels out of order")
    tau = np.array([float(v) for v in cols["tau"]]).reshape(steps, 8)
    if not (tau == np.array(spec.taus()[1:])[:, None]).all():
        problems.append("tau column differs from step * T")
    v = {c: np.array([float(x) for x in cols[c]]).reshape(steps, 8) for c in COLUMNS}

    rho0 = components(spec.rho0())
    if np.abs(v["unitary"] - rho0).max() > 1e-15:
        problems.append("unitary column differs from the initial state")
    corrected = np.arange(steps) % 8
    restored = np.abs(v["controlled"][np.arange(steps), corrected] - rho0[corrected])
    if restored.max() > TOL:
        problems.append(f"corrected component off its initial value by {restored.max():.3e}")
    free = _free_decay(spec, g_ref[1:])
    if np.abs(v["uncontrolled"] - free).max() > TOL:
        problems.append(f"uncontrolled column off free decay by "
                        f"{np.abs(v['uncontrolled'] - free).max():.3e}")

    solved, applied = v["solved_I"][:, 0], v["applied_I"][:, 0]
    if (v["solved_I"] != solved[:, None]).any() or (v["applied_I"] != applied[:, None]).any():
        problems.append("pulse columns vary within a step")
    xi = np.random.Generator(np.random.PCG64(spec.seed)).standard_normal(steps)
    noisy = solved + spec.delta_I * xi if spec.delta_I > 0 else solved
    if (applied != noisy).any():
        problems.append("applied_I is not solved_I + delta_I * xi bit for bit")

    # ledger: age and applied pulse sum of each component since its last reset
    ages = np.zeros((steps, 8), dtype=int)
    sums = np.zeros((steps, 8))
    age, total = [0] * 8, [0.0] * 8
    for s in range(steps):
        for e in range(8):
            age[e] += 1
            total[e] += applied[s]
        age[s % 8], total[s % 8] = 0, 0.0
        ages[s], sums[s] = age, total
    if spec.regime == "adiabatic":
        every = _adiabatic_controlled(spec, g_ref[ages], sums)   # (step, e, component)
        expect = every[:, np.arange(8), np.arange(8)]
        off = np.abs(v["controlled"] - expect).max()
        if off > TOL:
            problems.append(f"controlled column off U D_g(rho0) U^dagger by {off:.3e}")

    if spec.delta_I > 0:
        k = LABELS.index("rho12_im")
        dev_controlled = np.abs(v["controlled"][:, k] - v["unitary"][:, k]).mean()
        dev_free = np.abs(v["uncontrolled"][:, k] - v["unitary"][:, k]).mean()
        if not dev_controlled < dev_free:
            problems.append(f"criterion 8: controlled deviation {dev_controlled:.6g} "
                            f">= free deviation {dev_free:.6g}")
    if pulses is not None:
        worst = max((abs(p.root_residual) for p in pulses if not p.degenerate), default=0.0)
        if worst > ROOT_TOL:
            problems.append(f"root residual {worst:.3e} above root_tol {ROOT_TOL:g}")
    return problems


def check_kernel(name: str, program: np.ndarray, reference: np.ndarray,
                 rel: float = 1e-8) -> list[str]:
    program, reference = np.asarray(program, dtype=float), np.asarray(reference, dtype=float)
    if program.shape != reference.shape:
        return [f"{name}: {program.size} kernel values, expected {reference.size}"]
    err = np.abs(program - reference)
    bad = err > rel * np.abs(reference)
    if bad.any():
        i = int(np.argmax(err / np.maximum(np.abs(reference), 1e-300)))
        return [f"{name}: kernel off by rel {err[i] / abs(reference[i]):.3e} at point {i}"]
    return []
