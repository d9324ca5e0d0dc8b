"""The golden corpus reproduces its pinned exit codes and output digests."""

import json

import pytest

from golden import DIGESTS, corpus, run_corpus

EXPECTED = json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_digest_file_covers_the_corpus():
    assert sorted(EXPECTED) == sorted(name for name, _ in corpus()[1])


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_case(results, name):
    assert results[name] == EXPECTED[name]
