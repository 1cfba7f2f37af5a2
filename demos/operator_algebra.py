#!/usr/bin/env python3
"""Worked examples in the operator algebra: rewriting, adjoints, the product identity.

Run with:  python3 demos/operator_algebra.py
"""

from fractions import Fraction

from socle.grammar import parse_operator, parse_poly
from socle.weyl import WeylOp, check_euler_identity, formal_adjoint, normal_order


def show(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    show("normal ordering")
    raw = [(Fraction(1), [("d", 0), ("x", 0)])]
    print("d*x rewrites to:", normal_order(raw, 1).render())

    op = parse_operator("d0^2 * x0^2", 1)
    print("d^2 * x^2 rewrites to:", op.render())

    show("commutators [d_i, x_j] in three variables")
    for i in range(3):
        row = []
        for j in range(3):
            di, xj = WeylOp.d_gen(3, i), WeylOp.x_gen(3, j)
            row.append((di * xj - xj * di).render())
        print(f"  i={i}:", "  ".join(f"[d{i},x{j}] = {r}" for j, r in enumerate(row)))

    show("formal adjoint")
    q = parse_operator("x^2*d0 + 3*x", 1)
    print("q      =", q.render())
    print("adj(q) =", formal_adjoint(q).render())
    print("adj is an involution:", formal_adjoint(formal_adjoint(q)) == q)

    show("the product identity b*q = P(b) + d*R")
    q = parse_operator("-d0*x^2", 1)
    b = parse_poly("x", 1)
    p, r_op, residual = check_euler_identity(q, b)
    print("q =", q.render(), "  b =", b.render())
    print("P (formal adjoint)      =", p.render())
    print("R (remainder operator)  =", r_op.render())
    print("residual b*q - P(b) - d*R =", residual.render())
    assert not residual


if __name__ == "__main__":
    main()
