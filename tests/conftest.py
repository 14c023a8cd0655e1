import contextlib
import signal

import numpy as np
import hypothesis.strategies as st
from hypothesis import settings

from mdpgeo.core import Action, Mdp, span

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@st.composite
def mdps(draw, min_states=1, max_states=4, max_actions_per_state=3):
    """Small MDPs with exact-rational rows (integer weights over their sum)."""
    n = draw(st.integers(min_states, max_states))
    gamma = draw(st.sampled_from([0.3, 0.5, 0.9, 0.99]))
    actions = []
    for s in range(n):
        k = draw(st.integers(1, max_actions_per_state))
        for j in range(k):
            weights = draw(
                st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(
                    lambda w: sum(w) > 0
                )
            )
            probs = np.array(weights, dtype=float) / sum(weights)
            reward = draw(st.floats(-2.0, 2.0))
            actions.append(Action(id=f"s{s}a{j}", state=s, probs=probs, reward=reward))
    return Mdp(n_states=n, actions=tuple(actions), gamma=gamma)


@st.composite
def mdps_with_values(draw, **kwargs):
    mdp = draw(mdps(**kwargs))
    vals = draw(
        st.lists(st.floats(-10.0, 10.0), min_size=mdp.n_states, max_size=mdp.n_states)
    )
    return mdp, np.array(vals)


def loop_spans(values):
    """The spans as a run loop records them: one :func:`span` per iterate and per step."""
    span_v = [span(v) for v in values]
    span_dv = [np.nan] + [span(b - a) for a, b in zip(values[:-1], values[1:])]
    return np.array(span_v), np.array(span_dv)


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block once it has run ``seconds``, so a run
    that never ends fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
