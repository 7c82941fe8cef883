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
        self.user_attrs = {}

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

    def set_user_attr(self, key, value):
        self.user_attrs[key] = value


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
                 catch_errors=False, batch_size=1):
        """Run the ask-evaluate-tell loop.

        ``batch_size > 1`` asks a batch of trials against the same
        history and evaluates them together; results are told back in
        ask order, so the trial log stays deterministic for a
        deterministic objective.
        """

        def guarded(trial):
            try:
                return objective(trial), None
            except Exception as error:  # noqa: BLE001 - re-raised below
                return None, error

        remaining = n_trials
        while remaining > 0:
            batch = [self.ask()
                     for _ in range(min(batch_size, remaining))]
            remaining -= len(batch)
            outcomes = [guarded(trial) for trial in batch]
            # Tell every evaluated trial before honoring a stop: the
            # whole batch's objective cost is already paid, and a later
            # trial may hold the best value.
            stop = False
            for trial, (value, error) in zip(batch, outcomes):
                if error is not None:
                    if not catch_errors:
                        raise error
                    trial.state = "failed"
                    self.trials.append(trial)
                    continue
                self.tell(trial, value)
                for callback in callbacks:
                    if callback(self, trial):
                        stop = True
            if stop:
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
