"""Study/Trial: the ask-and-tell search API (Optuna-flavoured)."""

from repro.errors import SearchError
from repro.search.samplers import TPESampler


class Trial:
    """One evaluation of the objective; records suggested parameters."""

    def __init__(self, number, sampler, history):
        self.number = number
        self._sampler = sampler
        self._history = history
        self.params = {}
        self.value = None
        self.state = "running"

    def suggest_categorical(self, name, choices):
        value = self._sampler.suggest_categorical(name, list(choices),
                                                  self._history)
        self.params[name] = value
        return value

    def suggest_float(self, name, low, high, log=False):
        if low > high:
            raise SearchError(f"empty range for {name!r}")
        value = self._sampler.suggest_float(name, low, high, log,
                                            self._history)
        self.params[name] = value
        return value

    def suggest_int(self, name, low, high):
        if low > high:
            raise SearchError(f"empty range for {name!r}")
        value = self._sampler.suggest_int(name, low, high, self._history)
        self.params[name] = value
        return value


class Study:
    """Maximizing (or minimizing) sequential search."""

    def __init__(self, direction="maximize", sampler=None):
        if direction not in ("maximize", "minimize"):
            raise SearchError(f"invalid direction {direction!r}")
        self.direction = direction
        self.sampler = sampler or TPESampler()
        self.trials = []
        self._asked = 0

    def _history(self):
        sign = 1.0 if self.direction == "maximize" else -1.0
        return [(t.params, sign * t.value) for t in self.trials
                if t.state == "complete" and t.value is not None]

    def ask(self):
        trial = Trial(self._asked, self.sampler, self._history())
        self._asked += 1
        return trial

    def tell(self, trial, value):
        trial.value = value
        trial.state = "complete"
        self.trials.append(trial)

    def optimize(self, objective, n_trials, callbacks=(),
                 catch_errors=False):
        """Run the ask-evaluate-tell loop for ``n_trials`` trials, or
        until a callback returns True.  With ``catch_errors`` a trial
        whose objective raises is logged as ``failed`` and the search
        goes on."""
        for _ in range(n_trials):
            trial = self.ask()
            try:
                value = objective(trial)
            except Exception:  # noqa: BLE001 - re-raised unless caught
                if not catch_errors:
                    raise
                trial.state = "failed"
                self.trials.append(trial)
                continue
            self.tell(trial, value)
            # Every callback sees the trial, even after one asks to stop.
            if any([callback(self, trial) for callback in callbacks]):
                return self
        return self

    @property
    def best_trial(self):
        complete = [t for t in self.trials if t.state == "complete"]
        if not complete:
            raise SearchError("no completed trials")
        if self.direction == "maximize":
            return max(complete, key=lambda t: t.value)
        return min(complete, key=lambda t: t.value)

    @property
    def best_value(self):
        return self.best_trial.value

    @property
    def best_params(self):
        return dict(self.best_trial.params)


def create_study(direction="maximize", sampler=None, seed=0):
    return Study(direction, sampler or TPESampler(seed=seed))
