"""Spectra, centres and Ore localizations of finite rings and monomial
algebras, with an exhaustive claim-verification harness."""

__version__ = "0.1.0"
