"""Shared helpers for the test suite."""

from __future__ import annotations

from pbcnf import CnfFormula, PBConstraint, lit


def formula(num_vars, signed_clauses):
    f = CnfFormula(num_vars=num_vars)
    for cl in signed_clauses:
        f.add_clause([lit(abs(n), negative=n < 0) for n in cl])
    return f


def by_weight(c):
    return PBConstraint(tuple(sorted(c.terms, key=lambda t: t.weight)), c.relation, c.bound)
