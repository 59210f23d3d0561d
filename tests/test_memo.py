"""Derived data is memoised on the object it derives from, never globally."""

import gc
import pathlib
import re
import sys
import weakref

from orespec.centre import rho
from orespec.checks import _factor_matches
from orespec.finring import interning, make_quotient, make_zmod
from orespec.harness import CorpusConfig, build_corpus, run_suite
from orespec.ideals import min_prime_masks_over, prime_radical_mask
from orespec.localization import left_denominator_sets, localize, localize_left_ideal
from orespec.monomial import _scan_monomials, make_monomial_ring

SRC = pathlib.Path(__file__).parents[1] / "src" / "orespec"


def test_ring_and_its_derived_data_are_freed_together():
    r = make_zmod(12)
    mins = min_prime_masks_over(r, 1 << r.zero)
    dens = left_denominator_sets(r)
    assert len(dens) > 1
    for s in dens:
        sigma = localize(r, s)
        for m in mins:
            # the localized ideal is memoised on sigma, and the factor match
            # on the factor map, keyed by sigma
            li = localize_left_ideal(sigma, m)
            if li.mask != sigma.target.full_mask():
                _factor_matches(make_quotient(r, m)[1], sigma, li.mask)
    assert prime_radical_mask(r) == 0b1000001  # {0, 6}
    assert len([pm for pm, _ in rho(r) if pm in mins]) == 2  # rho on min(R)
    assert sigma.memo

    refs = [weakref.ref(r), weakref.ref(sigma)]
    del r, dens, s, sigma, li
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_serial_run_keeps_no_reference_to_its_corpus():
    # in-process, the run's intern table also keys each constructor call by
    # its operand tables, and A15Sep23 builds products of factor rings
    cfg = CorpusConfig(order_cap=4)
    corpus = build_corpus(cfg)
    ring = corpus[0].build(cfg.order_cap)
    run_suite(corpus, ("A11Sep23", "A15Sep23"), cfg)

    refs = [weakref.ref(ring), weakref.ref(corpus[1].build(cfg.order_cap))]  # built in the run
    del corpus, ring
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_pooled_run_keeps_no_reference_to_its_corpus():
    cfg = CorpusConfig(order_cap=4)
    corpus = build_corpus(cfg)
    ring = corpus[0].build(cfg.order_cap)
    run_suite(corpus, ("A11Sep23",), cfg, jobs=2)

    ref = weakref.ref(ring)
    del corpus, ring
    gc.collect()
    assert ref() is None


def test_a_run_shares_one_monomial_scan_per_variable_count_and_frees_it():
    with interning():
        a = make_monomial_ring(2, [(1, 1)])
        scan = _scan_monomials(a)
        assert _scan_monomials(make_monomial_ring(2, [(2, 0)])) is scan
        assert _scan_monomials(make_monomial_ring(3, [(1, 1, 0)])) is not scan
    assert not a.memo
    assert sys.getrefcount(scan) == 2  # this name and the argument: the run let go
    with interning():
        again = _scan_monomials(make_monomial_ring(2, [(1, 1)]))
    assert again == scan and again is not scan  # a run's value, not the process's


def test_no_process_global_caches_in_the_engine():
    global_cache = re.compile(r"\blru_cache\b|\bfunctools\.cache\b|from functools import .*\bcache\b")
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if global_cache.search(line)
    ]
    assert offenders == []
    definitions = [path.name for path in SRC.glob("*.py") if "\ndef memo(" in path.read_text()]
    assert definitions == ["finring.py"]
