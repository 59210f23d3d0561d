import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

from orespec.finring import (
    content,
    make_gf,
    make_matrix_ring,
    make_product,
    make_upper_triangular,
    make_zmod,
)
from orespec.harness import CorpusConfig, build_corpus


@pytest.fixture(scope="session")
def z6():
    return make_zmod(6)


@pytest.fixture(scope="session")
def z12():
    return make_zmod(12)


@pytest.fixture(scope="session")
def m2f2():
    return make_matrix_ring(2, make_gf(2))


@pytest.fixture(scope="session")
def t2f2():
    return make_upper_triangular(2, make_gf(2))


@pytest.fixture(scope="session")
def sample_rings():
    """A small cross-section: modular, field, matrix, triangular, product."""
    return [
        make_zmod(4),
        make_zmod(6),
        make_zmod(12),
        make_gf(4),
        make_matrix_ring(2, make_gf(2)),
        make_upper_triangular(2, make_gf(2)),
        make_product(make_zmod(2), make_zmod(6)),
    ]


@pytest.fixture(scope="module")
def corpus_tables():
    """One (instance, ring) per distinct table content of the default finite
    corpus, built afresh for each test module."""
    cfg = CorpusConfig()
    seen = set()
    out = []
    for inst in build_corpus(cfg):
        if inst.kind != "finite":
            continue
        r = inst.build(cfg.order_cap)
        if content(r) not in seen:
            seen.add(content(r))
            out.append((inst, r))
    return out
