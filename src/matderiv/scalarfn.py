"""Elementary functions that work on every scalar kind used here.

Programs written against this module run unchanged on plain numbers, dual
numbers (forward mode), tape variables (reverse mode), and tape variables
whose primals are duals (forward-over-reverse).  Arithmetic comes from
operator overloading; the named functions are those of
:mod:`matderiv.forward`, built from its one rule table.
"""

from __future__ import annotations

from .forward import cos, exp, log, powi, sin, sqrt  # noqa: F401
