"""The (alpha, beta, gamma) of the order-4 family that give each named
method on the 3-point Lobatto rule, the one copy the tests read.

discretize(build_order4(*FAMILY_PARAMS[name]), lobatto_rule(3)) agrees with
named_tableau(name) to 1e-14 (acceptance check c04); the library stores the
rows only.
"""

import math

S5 = math.sqrt(5.0)

FAMILY_PARAMS = {
    "rkn-iiia": (-1 / 12, 0.0, S5 / 60),
    "rkn-iiib": (-1 / 12, S5 / 60, 0.0),
    "diagsymp": (0.0, S5 / 30, S5 / 30),
    "rkn-a": (-1 / 10, S5 / 150, S5 / 60),
    "rkn-b": (-1 / 10, S5 / 60, S5 / 150),
}
