"""Reference brute-force scans: a plain-loop odometer over all labelings.

This is an independent implementation of the same contract as the chunked
numpy scans in ``coxcut.mrf``: it visits labelings one at a time in
lexicographic order (site 0 most significant), sums each energy term by
term, and keeps the first minimum it meets. Tests compare minima, argmins
and log partition functions against it.
"""

import math

import numpy as np


def _scan_min_loop(unary, pair_i, pair_j, tables):
    u = unary.shape[0]
    q = unary.shape[1]
    p = pair_i.shape[0]
    y = np.zeros(u, np.int64)
    best = np.zeros(u, np.int64)
    best_e = np.inf
    while True:
        e = 0.0
        for k in range(u):
            e += unary[k, y[k]]
        for r in range(p):
            e += tables[r, y[pair_i[r]], y[pair_j[r]]]
        if e < best_e:
            best_e = e
            best[:] = y
        pos = u - 1
        while pos >= 0 and y[pos] == q - 1:
            y[pos] = 0
            pos -= 1
        if pos < 0:
            break
        y[pos] += 1
    return best, best_e


def _scan_logz_loop(unary, pair_i, pair_j, tables):
    u = unary.shape[0]
    q = unary.shape[1]
    p = pair_i.shape[0]
    y = np.zeros(u, np.int64)
    m = -np.inf
    s = 0.0
    while True:
        e = 0.0
        for k in range(u):
            e += unary[k, y[k]]
        for r in range(p):
            e += tables[r, y[pair_i[r]], y[pair_j[r]]]
        v = -e
        if v > m:
            s = s * math.exp(m - v) + 1.0
            m = v
        else:
            s += math.exp(v - m)
        pos = u - 1
        while pos >= 0 and y[pos] == q - 1:
            y[pos] = 0
            pos -= 1
        if pos < 0:
            break
        y[pos] += 1
    return m + math.log(s)
