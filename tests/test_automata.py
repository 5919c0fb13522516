"""Learning automaton initialization, selection, and reinforcement updates."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aiopt import AutomatonBank, ConfigError, LearningAutomaton
from aiopt.automata import PENALTY, REWARD


def automaton(probabilities, a=0.1, b=0.1):
    auto = LearningAutomaton(len(probabilities), a, b)
    auto.probabilities[:] = probabilities
    return auto


# ------------------------------------------------------------- construction

def test_two_action_uniform_start():
    auto = LearningAutomaton(2, 0.1, 0.1)
    np.testing.assert_array_equal(auto.probabilities, [0.5, 0.5])


def test_four_action_reward_inaction():
    auto = LearningAutomaton(4, 0.1, 0.0)
    np.testing.assert_array_equal(auto.probabilities, [0.25] * 4)


def test_reward_epsilon_penalty_label():
    auto = LearningAutomaton(3, 0.5, 0.01)
    np.testing.assert_array_equal(auto.probabilities, [1 / 3] * 3)
    assert (auto.bank.reward_rate, auto.bank.penalty_rate) == (0.5, 0.01)


@pytest.mark.parametrize("r, a, b", [(1, 0.1, 0.1), (0, 0.1, 0.1), (2, -0.1, 0.1),
                                     (2, 0.1, 1.5), (2, 2.0, 0.1)])
def test_invalid_construction_rejected(r, a, b):
    with pytest.raises(ConfigError):
        LearningAutomaton(r, a, b)


@pytest.mark.parametrize("a, b, message", [
    (-0.1, 0.1, "<la-reward> must be >= 0 and <= 1, got -0.1"),
    (0.1, 1.5, "<la-penalty> must be >= 0 and <= 1, got 1.5"),
])
def test_invalid_rates_name_their_tag(a, b, message):
    with pytest.raises(ConfigError, match=message):
        AutomatonBank(3, 2, a, b)


# ---------------------------------------------------------------- selection

def test_degenerate_distribution_always_selected():
    rng = np.random.default_rng(3)
    first = automaton([1.0, 0.0])
    last = automaton([0.0, 0.0, 1.0])
    assert all(first.select_action(rng) == 0 for _ in range(200))
    assert all(last.select_action(rng) == 2 for _ in range(200))


def test_selection_leaves_probabilities_untouched():
    rng = np.random.default_rng(4)
    auto = automaton([0.3, 0.7])
    before = auto.probabilities.copy()
    for _ in range(50):
        auto.select_action(rng)
    np.testing.assert_array_equal(auto.probabilities, before)


def test_fair_coin_frequencies():
    rng = np.random.default_rng(5)
    auto = LearningAutomaton(2, 0.1, 0.1)
    draws = sum(auto.select_action(rng) for _ in range(100_000))
    assert abs(draws / 100_000 - 0.5) <= 0.01


# ------------------------------------------------------------ reinforcement

def test_reward_shifts_mass_to_chosen_action():
    auto = automaton([0.5, 0.5], a=0.1)
    auto.reinforce(0, REWARD)
    np.testing.assert_allclose(auto.probabilities, [0.55, 0.45], atol=1e-15)


def test_penalty_shifts_mass_away_from_chosen_action():
    auto = automaton([0.5, 0.5], b=0.1)
    auto.reinforce(0, PENALTY)
    np.testing.assert_allclose(auto.probabilities, [0.45, 0.55], atol=1e-15)


def test_penalty_is_inaction_when_rate_zero():
    auto = automaton([0.3, 0.7], a=0.1, b=0.0)
    auto.reinforce(1, PENALTY)
    np.testing.assert_array_equal(auto.probabilities, [0.3, 0.7])


def test_five_action_penalty_spreads_evenly():
    auto = automaton([0.2] * 5, b=0.1)
    auto.reinforce(2, PENALTY)
    # chosen: 0.2*0.9; others: 0.1/4 + 0.9*0.2
    np.testing.assert_allclose(auto.probabilities[2], 0.18, atol=1e-15)
    np.testing.assert_allclose(
        np.delete(auto.probabilities, 2), [0.205] * 4, atol=1e-15
    )


def test_out_of_range_action_rejected():
    auto = LearningAutomaton(3, 0.1, 0.1)
    with pytest.raises(ValueError):
        auto.reinforce(3, REWARD)
    with pytest.raises(ValueError):
        auto.reinforce(-1, REWARD)


def test_bad_signal_rejected():
    auto = LearningAutomaton(3, 0.1, 0.1)
    # True == PENALTY, so a "rewarded" flag would otherwise apply a penalty.
    for signal in (2, True, False, np.True_):
        with pytest.raises(ValueError, match="signal"):
            auto.reinforce(0, signal)
    np.testing.assert_array_equal(auto.probabilities, 1 / 3)


# ------------------------------------------------------------- properties

ops = st.lists(st.tuples(st.integers(0, 9), st.sampled_from([REWARD, PENALTY])),
               max_size=60)


@settings(deadline=None)
@given(r=st.sampled_from([2, 5, 10]), a=st.floats(0, 1), b=st.floats(0, 1), seq=ops)
def test_simplex_preserved_by_any_sequence(r, a, b, seq):
    auto = LearningAutomaton(r, a, b)
    for action, signal in seq:
        auto.reinforce(action % r, signal)
        assert abs(auto.probabilities.sum() - 1.0) <= 1e-9
        assert np.all(auto.probabilities >= 0.0)
        assert np.all(auto.probabilities <= 1.0)


@settings(deadline=None)
@given(r=st.sampled_from([2, 5, 10]), a=st.floats(0, 1), b=st.floats(0, 1),
       action=st.integers(0, 9), signal=st.sampled_from([REWARD, PENALTY]),
       seed=st.integers(0, 10_000))
def test_reinforcement_moves_chosen_probability_the_right_way(r, a, b, action, signal, seed):
    auto = LearningAutomaton(r, a, b)
    # start from an arbitrary reachable point on the simplex
    warm = np.random.default_rng(seed)
    for _ in range(5):
        auto.reinforce(int(warm.integers(r)), int(warm.integers(2)))
    action %= r
    before = auto.probabilities[action]
    auto.reinforce(action, signal)
    after = auto.probabilities[action]
    if signal == REWARD:
        assert after >= before - 1e-12
    else:
        assert after <= before + 1e-12


@pytest.mark.parametrize("signal", [REWARD, PENALTY])
def test_reward_inaction_absorbing_state(signal):
    auto = automaton([0.0, 1.0, 0.0], a=0.1, b=0.0)
    auto.reinforce(1, signal)
    np.testing.assert_array_equal(auto.probabilities, [0.0, 1.0, 0.0])


def test_repeated_reward_converges_to_certainty():
    auto = LearningAutomaton(5, 0.1, 0.1)
    for _ in range(400):
        auto.reinforce(3, REWARD)
    assert auto.probabilities[3] > 0.999
    assert abs(auto.probabilities.sum() - 1.0) <= 1e-9


# -------------------------------------------------- bank against scalar code

def reference_select(p, rng):
    """Scalar selection as a single automaton did it before banks existed."""
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return min(idx, len(p) - 1)


def reference_reinforce(p, action, signal, a, b):
    """Scalar in-place update as a single automaton did it before banks existed."""
    if signal == REWARD:
        chosen = p[action] + a * (1.0 - p[action])
        p *= 1.0 - a
        p[action] = chosen
    else:
        chosen = p[action] * (1.0 - b)
        p *= 1.0 - b
        p += b / (len(p) - 1)
        p[action] = chosen
    total = p.sum()
    if abs(total - 1.0) > 1e-12:
        p /= total


rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


@st.composite
def simplex_row(draw, r):
    """A one-hot row, or random weights scaled to sum to about 1 (within 1e-9)."""
    if draw(st.booleans()):
        return np.eye(r)[draw(st.integers(0, r - 1))]
    weights = np.array(draw(st.lists(st.floats(0, 1), min_size=r, max_size=r)))
    if weights.sum() == 0.0:
        weights[0] = 1.0
    return weights / weights.sum() * draw(st.floats(1 - 1e-9, 1 + 1e-9))


@st.composite
def banks(draw):
    r = draw(st.sampled_from([2, 3, 4, 5, 6, 9]))
    n = draw(st.integers(1, 12))
    bank = AutomatonBank(n, r, draw(rates), draw(rates))
    bank.probabilities[:] = [draw(simplex_row(r)) for _ in range(n)]
    return bank


@settings(deadline=None, max_examples=300)
@given(bank=banks(), seed=st.integers(0, 2**32 - 1))
def test_bank_select_matches_scalar_reference(bank, seed):
    before = bank.probabilities.copy()
    actions = bank.select(np.random.default_rng(seed))
    mirror = np.random.default_rng(seed)
    expected = [reference_select(row, mirror) for row in before]
    np.testing.assert_array_equal(actions, expected)
    assert bank.probabilities.tobytes() == before.tobytes()


class FixedDraws:
    """Stands in for a generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n=None):
        if n is None:
            return self.values.pop(0)
        drawn, self.values = self.values[:n], self.values[n:]
        return np.array(drawn)


def test_bank_select_breaks_ties_like_the_scalar_reference():
    # A draw equal to a cumulative probability goes to the next action.
    rows = [[0.25, 0.25, 0.5]] * 4
    draws = [0.25, 0.5, 0.0, 1.0]
    bank = AutomatonBank(4, 3, 0.1, 0.1)
    bank.probabilities[:] = rows
    expected = [reference_select(np.array(row), FixedDraws(draws[i:]))
                for i, row in enumerate(rows)]
    np.testing.assert_array_equal(bank.select(FixedDraws(draws)), expected)
    assert expected == [1, 2, 0, 2]


@settings(deadline=None, max_examples=300)
@given(bank=banks(), data=st.data())
def test_bank_reinforce_matches_scalar_reference(bank, data):
    n, r = bank.probabilities.shape
    order = data.draw(st.permutations(range(n)))
    rows = np.array(order[: data.draw(st.integers(0, n))], dtype=np.intp)
    actions = data.draw(st.lists(st.integers(0, r - 1), min_size=len(rows), max_size=len(rows)))
    rewarded = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))

    expected = bank.probabilities.copy()
    for row, action, reward in zip(rows, actions, rewarded):
        reference_reinforce(expected[row], action, REWARD if reward else PENALTY,
                            bank.reward_rate, bank.penalty_rate)
    untouched = np.setdiff1d(np.arange(n), rows)
    before = bank.probabilities[untouched].copy()

    bank.reinforce(rows, actions, rewarded)
    assert bank.probabilities.tobytes() == expected.tobytes()
    assert bank.probabilities[untouched].tobytes() == before.tobytes()


@settings(deadline=None)
@given(n=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
def test_vector_draw_equals_scalar_draws(n, seed):
    # A bank draws one uniform per row in a single call; bit-identity with
    # per-automaton draws rests on this.
    vector = np.random.default_rng(seed).random(n)
    scalar = np.random.default_rng(seed)
    assert vector.tobytes() == np.array([scalar.random() for _ in range(n)]).tobytes()


def test_bank_rows_are_writable_automaton_views():
    bank = AutomatonBank(3, 4, 0.2, 0.1)
    auto = list(bank)[1]
    assert auto.action_count == 4
    auto.probabilities[:] = [0.0, 1.0, 0.0, 0.0]
    auto.reinforce(1, PENALTY)
    np.testing.assert_array_equal(bank.probabilities[1], auto.probabilities)
    np.testing.assert_array_equal(bank.probabilities[[0, 2]], 0.25)
    assert [a.row for a in bank] == [0, 1, 2]


def test_bank_rejects_out_of_range_actions():
    bank = AutomatonBank(2, 3, 0.1, 0.1)
    with pytest.raises(ValueError):
        bank.reinforce([0, 1], [0, 3], [True, False])
    with pytest.raises(ValueError):
        bank.reinforce([0], [-1], [True])
    np.testing.assert_array_equal(bank.probabilities, 1 / 3)


def test_non_integer_action_rejected():
    auto = LearningAutomaton(3, 0.1, 0.1)
    for action in (1.5, True):
        with pytest.raises(ValueError, match="integer"):
            auto.reinforce(action, REWARD)
    np.testing.assert_array_equal(auto.probabilities, 1 / 3)
    auto.reinforce(np.int64(1), REWARD)
    assert auto.probabilities[1] > 1 / 3


@pytest.mark.parametrize("action", [3, -1, 1.5, True])
def test_bad_action_gets_the_banks_one_message(action):
    auto = LearningAutomaton(3, 0.1, 0.1)
    bank = AutomatonBank(1, 3, 0.1, 0.1)
    with pytest.raises(ValueError) as scalar:
        auto.reinforce(action, REWARD)
    with pytest.raises(ValueError) as banked:
        bank.reinforce([0], [action], [True])
    assert str(scalar.value) == str(banked.value)
    assert str(scalar.value).startswith("actions must be integers in [0, 3), got ")
    np.testing.assert_array_equal(auto.probabilities, 1 / 3)
    np.testing.assert_array_equal(bank.probabilities, 1 / 3)


def test_bank_rejects_malformed_actions_and_signals():
    bank = AutomatonBank(2, 3, 0.1, 0.1)
    with pytest.raises(ValueError, match="integers"):
        bank.reinforce([0, 1], [1.7, 0.2], [True, False])
    with pytest.raises(ValueError, match="integers"):
        bank.reinforce([0, 1], [True, False], [True, False])
    for rows, actions, rewarded in (([0, 1], [1], [True, True]),
                                    (slice(None), [1, 2], [True]),
                                    ([0], [1, 2], [True, False])):
        with pytest.raises(ValueError, match="one action and one signal"):
            bank.reinforce(rows, actions, rewarded)
    np.testing.assert_array_equal(bank.probabilities, 1 / 3)
    bank.reinforce([], [], [])  # no rows, no actions: nothing to do
    np.testing.assert_array_equal(bank.probabilities, 1 / 3)


def test_bank_rejects_repeated_rows():
    bank = AutomatonBank(2, 2, 0.1, 0.1)
    for rows in ([0, 0], [1, -1], np.array([0, 1, 0])):
        with pytest.raises(ValueError, match="distinct"):
            bank.reinforce(rows, [0] * len(rows), [True] * len(rows))
    np.testing.assert_array_equal(bank.probabilities, 0.5)
    bank.reinforce(np.array([True, True]), [0, 1], [True, False])  # a mask names each row once
    np.testing.assert_array_equal(bank.probabilities, [[0.55, 0.45], [0.55, 0.45]])


def test_empty_bank_is_falsy_and_draws_nothing():
    bank = AutomatonBank(0, 2, 0.1, 0.1)
    rng = np.random.default_rng(0)
    assert not bank and list(bank) == []
    assert bank.select(rng).size == 0
    assert rng.random() == np.random.default_rng(0).random()
