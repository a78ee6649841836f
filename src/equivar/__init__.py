"""equivar: exact computations with symmetric-group-equivariant modules.

The package works with finite truncations of the quotient of a polynomial
ring in N variables by the ideal of (s+1)st powers of the variables, carrying
the natural action of the symmetric group on N letters.  Everything is
computed in exact rational arithmetic.

Subpackages:

- ``linalg``          sparse rational matrices, rank/nullspace engine
- ``combinat``        partitions, characters, symmetric functions, injections
- ``truncated_ring``  the monomial basis of the truncated ring
- ``equivariant``     the P/Q module families, direct sums, filtrations, characters
- ``homcalc``         Hom/Ext/Tor solvers, complexes, stabilization
- ``fi_layer``        principal and torsion FI-modules and the weight-s functor
- ``groth``           Grothendieck-group bookkeeping and basis changes
- ``cas_cat``         the combinatorial category with truncated-ring twists
- ``cli``             command line front end (``equivar``)

The package holds one path per computation, each reached by a command.
The independent references that the tests compare it against (generic
elimination, Ext by minimal free covers, brute-force oracles) live in
``tests/reference.py``.

All public objects are immutable after construction and all operations are
pure, so values may be shared freely between threads.
"""

__version__ = "0.1.0"
