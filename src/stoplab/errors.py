"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """A vector argument does not match the declared ambient dimension."""


class CalibrationError(ValueError):
    """A noise model cannot be calibrated to a finite sub-Gaussian certificate."""


class DivergenceError(RuntimeError):
    """An iterate left the trust region; args (step, that step's largest |x|), so it unpickles."""

    def __init__(self, step: int, norm: float):
        super().__init__(step, norm)
        self.step, self.norm = step, norm

    def __str__(self):
        return f"iterate diverged at step {self.step} (norm {self.norm:.3e})"


class ConfigError(ValueError):
    """An experiment configuration failed validation.

    ``problems`` lists every violation found, not just the first.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
