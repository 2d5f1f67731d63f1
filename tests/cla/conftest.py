import os

import pytest

from .corpus import CASES, build_case


@pytest.fixture(scope="session")
def cla_corpus(tmp_path_factory) -> dict[str, list[str]]:
    """case -> object files and linked database, built once per session."""
    root = tmp_path_factory.mktemp("cla-corpus")
    return {case: build_case(case, os.path.join(root, case))
            for case in CASES}
