"""Exact per-run accounting of upper- and lower-level function evaluations."""

from dataclasses import dataclass, field


@dataclass
class EvalLedger:
    """Strict sequential counter of function evaluations for one run.

    ``trace`` holds convergence checkpoints ``(fes_t, best_F)`` appended by the
    driving loop (one per upper generation, and one after the re-solves of
    ``NestedRun.confirm_elite``).  ``fes_t`` is always
    ``fes_u + fes_l`` at checkpoint time.
    """

    fes_u: int = 0
    fes_l: int = 0
    trace: list = field(default_factory=list)

    @property
    def fes_t(self):
        return self.fes_u + self.fes_l

    def count_upper(self):
        self.fes_u += 1

    def count_lower(self):
        self.fes_l += 1

    def checkpoint(self, best_F):
        self.trace.append((self.fes_t, float(best_F)))
