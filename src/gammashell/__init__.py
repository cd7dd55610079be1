"""Shellability toolkit for the complexes Gamma_p(n) of increasing tuple chains.

Faces are chains of p-tuples increasing in every coordinate; facets admit a
three-condition characterization, the dimension-then-lex order is a shelling,
and counting the facets that attach along their whole boundary reproduces the
alternating sums of powers of binomial coefficients through an explicit
generating-function bridge.

Importing the package loads none of its modules.  Each name is imported from
the module that defines it and lists it in its __all__, as in
``from gammashell.shelling import verify_shelling``.
"""

__version__ = "0.1.0"
