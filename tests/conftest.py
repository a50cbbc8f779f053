import pathlib
import sys

import pytest
from hypothesis import settings

from siltlab import zoo
from siltlab.corpus import NoDecompositionError, decompose
from siltlab.harness import load_workbench
from siltlab.reps import direct_sum

ALG_DIR = pathlib.Path(__file__).resolve().parent.parent / "algebras"

# Every run draws the same property-test examples: derandomize seeds each
# test from a hash of the test itself, and implies no example database.
settings.register_profile("siltlab", derandomize=True, deadline=None)
settings.load_profile("siltlab")


def whole_sum(wb, candidate):
    """The direct sum of a candidate's summands, which the Workbench never
    builds: the reference that its summand-wise tables are tested against."""
    return direct_sum(wb.algebra, [wb.members[i] for i in candidate])


def decompose_or_none(m, corpus):
    """decompose, with None where M has a summand the corpus lacks."""
    try:
        return decompose(m, corpus)
    except NoDecompositionError:
        return None


def count_calls(monkeypatch, module, attr):
    """Wrap module.attr in every siltlab module that binds it, or on the
    class when module is a class (a method then receives self first);
    return the list of argument tuples it is called with."""
    original = getattr(module, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(module, type):
        monkeypatch.setattr(module, attr, counting)
        return calls
    for name, sub in list(sys.modules.items()):
        if name.startswith("siltlab.") and vars(sub).get(attr) is original:
            monkeypatch.setattr(sub, attr, counting)
    return calls


@pytest.fixture(scope="session")
def alg_dir():
    return ALG_DIR


@pytest.fixture(scope="session")
def a2_parsed():
    return zoo.a2()


@pytest.fixture(scope="session")
def a2_algebra(a2_parsed):
    return a2_parsed.build()


@pytest.fixture(scope="session")
def a3_parsed():
    return zoo.linear_an(3)


@pytest.fixture(scope="session")
def a3_algebra(a3_parsed):
    return a3_parsed.build()


@pytest.fixture(scope="session")
def nak3_parsed():
    return zoo.nakayama_a3()


@pytest.fixture(scope="session")
def nak3_algebra(nak3_parsed):
    return nak3_parsed.build()


@pytest.fixture(scope="session")
def cyc2_parsed():
    return zoo.cyclic_nakayama_2()


@pytest.fixture(scope="session")
def cyc2_algebra(cyc2_parsed):
    return cyc2_parsed.build()


@pytest.fixture(scope="session")
def a4_parsed():
    return zoo.linear_an(4)


@pytest.fixture(scope="session")
def a4_wb(a4_parsed):
    return load_workbench(a4_parsed)


@pytest.fixture(scope="session")
def a4_f3_wb():
    return load_workbench(zoo.linear_an(4, 3))


@pytest.fixture(scope="session")
def a2_wb(a2_parsed):
    return load_workbench(a2_parsed)


@pytest.fixture(scope="session")
def a3_wb(a3_parsed):
    return load_workbench(a3_parsed)


@pytest.fixture(scope="session")
def nak3_wb(nak3_parsed):
    return load_workbench(nak3_parsed)


@pytest.fixture(scope="session")
def cyc2_wb(cyc2_parsed):
    return load_workbench(cyc2_parsed)
