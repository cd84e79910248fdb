"""Fixtures shared across test modules."""

import pytest

from holoflow import construct


@pytest.fixture(scope="session")
def witness_states():
    """The BMOA and Bloch witness states at 4 steps, keyed (mode, bits) for
    256 and 512 bits; built once per session.  Tests only read them."""
    states = {}
    for bits in (256, 512):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("HOLOFLOW_PRECISION_BITS", str(bits))
            for mode, build in (("bmoa", construct.build_bmoa),
                                ("bloch", construct.build_bloch)):
                states[mode, bits] = build(n_max=4)
    return states
