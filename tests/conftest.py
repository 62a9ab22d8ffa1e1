import contextlib
import itertools
import os
import signal
from pathlib import Path

import pytest

from qflag3 import qpair
from qflag3.ncpoly import NCPolynomial
from qflag3.scalar import Coefficient, ONE, ZERO

# the CLI, report and demo tests run qflag3 in subprocesses, which import the
# same source tree as this process: the checkout's src, ahead of any install
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the body after `seconds` of wall time, so an
    elimination that never ends fails the test instead of hanging it.
    Without SIGALRM the body runs unbounded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("no result after %s s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def time_limit():
    """The context manager `time_limit(seconds)`: a test that eliminates
    wraps its work in it."""
    return _time_limit


@pytest.fixture(scope="session")
def reachable_states():
    """Every state that the slot duals' states reach through the letter
    transitions of qpair._steps."""
    states = set()
    frontier = [state for dual in qpair.SLOT_DUALS for state, _ in qpair._member_states(dual)]
    while frontier:
        state = frontier.pop()
        if state not in states:
            states.add(state)
            frontier.extend(right for letter in range(9) for right, _ in qpair._steps(state, letter))
    return tuple(states)


def _antipode_axiom_defects(states):
    """(i, j, side, state) wherever sum_k u_ik S(u_kj) (side "uS") or
    sum_k S(u_ik) u_kj (side "Su") does not pair with the state to delta_ij
    times the state's counit, 1 on a K power and 0 on an E/F letter.  S is
    read from qpair at each call."""
    u, antipode, zero = qpair.u_monomial, qpair.antipode_word, NCPolynomial(qpair.U_ALPHABET)
    defects = []
    for i, j in itertools.product((1, 2, 3), repeat=2):
        sides = {"uS": sum((u((i, k)) * antipode(k, j) for k in (1, 2, 3)), zero),
                 "Su": sum((antipode(i, k) * u((k, j)) for k in (1, 2, 3)), zero)}
        for side, poly in sides.items():
            for state in states:
                value = ZERO
                for word, coeff in poly.terms.items():
                    value = value + coeff * Coefficient(qpair._pair_word(state, word))
                if value != (ONE if i == j and len(state) == 2 else ZERO):
                    defects.append((i, j, side, state))
    return defects


@pytest.fixture(scope="session")
def antipode_axiom_defects():
    """The function `antipode_axiom_defects(states)`, shared by the pairing
    tests and the mutation that flips a sign of the antipode."""
    return _antipode_axiom_defects
