"""Exact arithmetic for generalized bent functions over Z_m.

The package splits into layers that mirror the arithmetic:

- ``ring``     integer group-ring elements of a cyclic group and character
               zero-tests by one cached reduction matrix modulo Phi_d,
- ``vsum``     vanishing sums of roots of unity: minimality, exponents,
               decompositions,
- ``gbf``      functions Z_2^n -> Z_m, their autocorrelation tables (one
               numpy count array each) and the exact bent criterion,
- ``criteria`` the arithmetic nonexistence pipeline on (m, n),
- ``search``   the exhaustive oracle and the autocorrelation form catalog,
- ``cli``      command-line front end.

Everything verdict-relevant is integer-exact; floating point appears only in
the search's numeric screen and in numeric cross-checks.
"""

__version__ = "0.1.0"
