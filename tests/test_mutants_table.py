"""The mutation spot check's table stays runnable: python tests/mutants.py.

Running the mutants takes minutes, so tier-1 checks only the table: a
refactor that removes or rewrites a mutated line fails here.
"""

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


def test_each_mutated_snippet_occurs_once_in_its_module():
    for mutant in MUTANTS:
        source = (ROOT / mutant.module).read_text()
        assert source.count(mutant.original) == 1, mutant.name


def test_each_named_test_file_exists():
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            assert (ROOT / test).is_file(), (mutant.name, test)
