"""Fixture: numpy.random imported under an alias outside the rng home."""

import numpy.random as npr
from numpy import random as nr

a = npr.default_rng(1)
b = nr.default_rng(2)
c = npr.PCG64(3)
