"""Variable-structure learning automata with linear reinforcement.

An automaton keeps a probability distribution over a finite action set.
After acting it receives a binary signal, 0 for reward and 1 for penalty,
and shifts probability mass toward or away from the chosen action with
learning rates ``a`` (reward) and ``b`` (penalty).  The usual scheme
names apply: reward-penalty when a == b, reward-inaction when b == 0,
and reward-epsilon-penalty when a is much larger than b.

Automata that share an action count and rates live as the rows of one
``AutomatonBank``, which selects and reinforces many rows per numpy call.
A ``LearningAutomaton`` is a single row of a bank, so both share one
update rule; row ``i`` of a bank is ``bank.probabilities[i]``.
"""
from __future__ import annotations

import numpy as np

from .errors import check

REWARD = 0
PENALTY = 1

# Row sums further than this from 1 are renormalized after an update.
DRIFT_TOLERANCE = 1e-12


def rate_rules(reward_rate: float, penalty_rate: float) -> list[tuple[bool, str]]:
    """The learning-rate rules, for ``check``; each message names its XML tag."""
    return [(0.0 <= reward_rate <= 1.0, f"<la-reward> must be >= 0 and <= 1, got {reward_rate}"),
            (0.0 <= penalty_rate <= 1.0, f"<la-penalty> must be >= 0 and <= 1, got {penalty_rate}")]


class AutomatonBank:
    """``count`` automata over ``action_count`` actions: one probability row each.

    The penalty update distributes ``b / (r - 1)`` to each non-chosen
    action, which keeps every row on the simplex for any action count.
    Both updates preserve the simplex exactly in real arithmetic; rows
    whose sum drifts in floating point are renormalized.  The arithmetic
    is element-wise in a fixed order, so a row updated in a bank is
    bit-identical to the same row updated alone.
    """

    def __init__(self, count: int, action_count: int, reward_rate: float, penalty_rate: float):
        check((action_count >= 2, f"automaton needs at least 2 actions, got {action_count}"),
              *rate_rules(reward_rate, penalty_rate))
        self.reward_rate = float(reward_rate)
        self.penalty_rate = float(penalty_rate)
        self.probabilities = np.full((count, action_count), 1.0 / action_count)

    def __len__(self) -> int:
        return len(self.probabilities)

    def __iter__(self):
        return (LearningAutomaton.row_of(self, row) for row in range(len(self)))

    @property
    def action_count(self) -> int:
        return self.probabilities.shape[1]

    def select(self, rng: np.random.Generator, rows=slice(None)) -> np.ndarray:
        """Draw one action per row (all rows by default), rows in order.

        Row ``i`` takes the ``i``-th uniform draw ``u`` and picks the first
        action whose cumulative probability exceeds ``u``; a draw beyond
        a row's total (float drift) picks the last action.
        """
        p = self.probabilities[rows]
        u = rng.random(len(p))
        # Probabilities are non-negative, so cumulative sums never decrease
        # and counting the first r - 1 of them that are <= u is the same as
        # searchsorted(cumsum, u, side="right") clipped to r - 1.  The
        # column-by-column sums are the sequential sums cumsum makes.
        cumulative = p[:, 0]
        actions = (cumulative <= u).astype(np.intp)
        for j in range(1, self.action_count - 1):
            cumulative = cumulative + p[:, j]
            actions += cumulative <= u
        return actions

    def reinforce(self, rows, actions, rewarded) -> None:
        """Update each listed row at its action; ``rewarded`` is a bool per row.

        ``rows`` is a slice or an array of distinct row indices.  Rows not
        listed are left untouched.  Raises ``ValueError``, with no row
        changed, if ``rows`` names a row twice, if ``actions`` or
        ``rewarded`` lacks one entry per row, or if an action is not an
        integer in ``[0, r)``.  Every reinforcement is checked here.

        Each element goes through the same floating-point operations, in
        the same order, as a one-automaton update that rescales the row,
        adds the penalty share and then overwrites the chosen entry.
        Reward rows add a share of 0.0, which leaves them exactly as they
        were.
        """
        p = self.probabilities[rows]
        if not isinstance(rows, slice):
            listed = np.arange(len(self))[rows].tolist()
            if len(set(listed)) < len(listed):
                raise ValueError(f"rows must be distinct, got {np.asarray(rows).tolist()}")
        actions = np.asarray(actions)
        rewarded = np.asarray(rewarded, dtype=bool)
        if actions.shape != (len(p),) or rewarded.shape != (len(p),):
            raise ValueError(f"need one action and one signal for each of {len(p)} rows, "
                             f"got {actions.shape} and {rewarded.shape}")
        r = self.action_count
        if actions.size and (actions.dtype.kind not in "iu" or actions.min() < 0
                             or actions.max() >= r):
            raise ValueError(f"actions must be integers in [0, {r}), got {actions.dtype} "
                             f"{actions.min()} to {actions.max()}")
        a, b = self.reward_rate, self.penalty_rate
        picked = (np.arange(len(p)), actions.astype(np.intp, copy=False))
        old = p[picked]
        chosen = np.where(rewarded, old + a * (1.0 - old), old * (1.0 - b))
        columns = p.T  # per-row factors broadcast along the row axis
        columns *= np.where(rewarded, 1.0 - a, 1.0 - b)
        columns += np.where(rewarded, 0.0, b / (r - 1))
        p[picked] = chosen
        total = p.sum(axis=1)
        drifted = np.abs(total - 1.0) > DRIFT_TOLERANCE
        if drifted.any():
            p[drifted] /= total[drifted, None]
        if not isinstance(rows, slice):  # a slice's rows are a view, already updated
            self.probabilities[rows] = p


class LearningAutomaton:
    """One automaton: a single row of an ``AutomatonBank``.

    Constructed directly it owns a one-row bank; iterating a bank gives
    one view per row, whose ``probabilities`` write through to that row.
    """

    def __init__(self, action_count: int, reward_rate: float, penalty_rate: float):
        self.bank = AutomatonBank(1, action_count, reward_rate, penalty_rate)
        self.row = 0

    @classmethod
    def row_of(cls, bank: AutomatonBank, row: int) -> LearningAutomaton:
        auto = cls.__new__(cls)
        auto.bank = bank
        auto.row = row
        return auto

    @property
    def probabilities(self) -> np.ndarray:
        return self.bank.probabilities[self.row]

    @property
    def action_count(self) -> int:
        return self.bank.action_count

    def select_action(self, rng: np.random.Generator) -> int:
        """Draw an action index according to the current probabilities."""
        return int(self.bank.select(rng, slice(self.row, self.row + 1))[0])

    def reinforce(self, action: int, signal: int) -> None:
        """Update the probability vector for the given action and signal.

        The signal is 0 or 1, never a bool (``True == PENALTY``, so a
        "rewarded" flag would apply a penalty); the bank checks the action.
        """
        if isinstance(signal, (bool, np.bool_)) or signal not in (REWARD, PENALTY):
            raise ValueError(f"signal must be 0 (reward) or 1 (penalty), got {signal}")
        self.bank.reinforce(slice(self.row, self.row + 1), [action], [signal == REWARD])
