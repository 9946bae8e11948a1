"""Central-difference check of the tape gradients."""

import numpy as np

from trendgat import autodiff as ad


class DeterminismError(AssertionError):
    """Two evaluations of a supposedly deterministic function disagreed."""


class GradCheckReport:
    """Outcome of a central-difference comparison."""

    def __init__(self, max_rel_err: float, worst_param: int, worst_coord: tuple[int, int],
                 tol: float):
        self.max_rel_err = max_rel_err
        self.worst_param = worst_param
        self.worst_coord = worst_coord
        self.tol = tol
        self.passed = max_rel_err <= tol

    def __repr__(self) -> str:
        return (f"GradCheckReport(max_rel_err={self.max_rel_err:.3e}, "
                f"param={self.worst_param}, coord={self.worst_coord}, passed={self.passed})")


def grad_check(f, params: list[ad.Value], step: float = 1e-5, tol: float = 1e-4,
               zero_tol: float = 1e-6) -> GradCheckReport:
    """Compare the tape gradient of ``f()`` (a 1x1 Value) against central
    finite differences over every coordinate of ``params``.

    ``f`` must be deterministic; it is evaluated twice up front and a
    mismatch raises DeterminismError.  Relative error uses the denominator
    max(|analytic|, |numeric|, 1e-8).  Coordinates where both sides are
    below ``zero_tol`` count as agreeing: central differences of an O(1)
    function carry ~eps*|f|/(2*step) cancellation noise, so a true-zero
    gradient cannot be resolved more finely in double precision.
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")

    def eval_plain() -> float:
        return f().item()

    f0 = eval_plain()
    if eval_plain() != f0:
        raise DeterminismError("grad_check: f returned different values on repeat evaluation")

    for p in params:
        p.zero_grad()
    with ad.Tape() as t:
        out = f()
        t.backward(out)
    analytic = [p.grad.copy() for p in params]

    max_rel = 0.0
    worst_param, worst_coord = -1, (-1, -1)
    for pi, p in enumerate(params):
        it = np.nditer(p.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + step
            fp = eval_plain()
            p.data[idx] = orig - step
            fm = eval_plain()
            p.data[idx] = orig
            numeric = (fp - fm) / (2.0 * step)
            a = analytic[pi][idx]
            if max(abs(a), abs(numeric)) < zero_tol:
                rel = 0.0
            else:
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > max_rel:
                max_rel, worst_param, worst_coord = rel, pi, idx
            it.iternext()
    return GradCheckReport(max_rel, worst_param, worst_coord, tol)
