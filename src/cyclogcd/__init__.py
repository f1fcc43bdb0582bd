"""cyclogcd: exact-arithmetic experiments on gcd sequences of cyclotomic
values, over the integers and over polynomial rings with finite-field
coefficients.  Each name is imported from the module that defines it."""

__version__ = "0.1.0"
