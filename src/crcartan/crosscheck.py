"""Reference closed forms of the torsion coefficients, for cross-checking.

The pipeline derives every torsion coefficient by re-expanding the exterior
derivative of the lifted coframe; the closed formulas below are independent
transcriptions used to confirm the derivation (or to surface a discrepancy:
comparison never resolves silently, each name gets an explicit verdict).
"""

from __future__ import annotations

from .exact import Expr, I
from .frames import StructureFunctions


def first_loop_reference(sf: StructureFunctions) -> dict[str, Expr]:
    """The 22 named first-loop torsion coefficients in closed form."""
    ctx = sf.frame.ctx
    a, ab, b, bb, c, cb, d, db, e, eb = ctx.vars(
        "a", "ab", "b", "bb", "c", "cb", "d", "db", "e", "eb")
    i = ctx.const(I)
    P, Q, R, A, B = sf.P, sf.Q, sf.R, sf.A, sf.B
    E, F, G, J, K = sf.E, sf.F, sf.G, sf.J, sf.K
    Pb, Qb, Rb, Bb = P.conj(), Q.conj(), R.conj(), B.conj()
    Eb, Fb, Gb, Kb = E.conj(), F.conj(), G.conj(), K.conj()
    inverses = {}

    def over(p, q):
        """1 / (a^p ab^q)."""
        if (p, q) not in inverses:
            inverses[p, q] = 1 / (a ** p * ab ** q)
        return inverses[p, q]

    # each tuple is one term of the paper, its factors multiplied in the sum
    ref = {}
    ref["U1"] = ctx.sum((-1, K, over(1, 2)), (-1, cb, F, over(2, 3)),
                        (b, cb, Q, over(3, 3)), (-1, db, Q, over(2, 2)),
                        (bb, cb, B, over(2, 4)), (-1, eb, B, over(1, 3)),
                        (c, Gb, over(2, 3)), (-1, b, c, B, over(3, 3)),
                        (e, B, over(2, 2)), (-1, bb, c, Rb, over(2, 4)),
                        (d, Rb, over(1, 3)), (c, db, over(3, 3)),
                        (-1, cb, e, over(3, 3)))
    ref["U2"] = ctx.sum((F, over(1, 1)), (-1, b, Q, over(2, 1)),
                        (-1, bb, B, over(1, 2)), (e, over(2, 1)))
    ref["U3"] = ctx.sum((Q, over(1, 0)), (-1, c, over(2, 1)))
    ref["U4"] = B / ab
    ref["U5"] = ctx.sum((Gb, over(0, 2)), (-1, b, B, over(1, 2)),
                        (-1, bb, Rb, over(0, 3)), (db, over(1, 2)))
    ref["U6"] = ctx.sum((B, over(0, 1)), (-1, cb, over(1, 2)))
    ref["U7"] = a * Rb / ab ** 2

    ref["V1"] = ctx.sum((-1, c, K, over(3, 3)), (-1, c, cb, F, over(4, 4)),
                        (b, c, cb, Q, over(5, 4)), (-1, c, db, Q, over(4, 3)),
                        (bb, c, cb, B, over(4, 5)), (-1, c, eb, B, over(3, 4)),
                        (c, c, Gb, over(4, 4)), (-1, b, c, c, B, over(5, 4)),
                        (c, e, B, over(4, 3)), (-1, bb, c, c, Rb, over(4, 5)),
                        (c, d, Rb, over(3, 4)), (c, c, db, over(5, 4)),
                        (-1, e, c, cb, over(5, 4)), (cb, Kb, over(3, 3)),
                        (c, cb, Fb, over(4, 4)),
                        (-1, bb, c, cb, Qb, over(4, 5)),
                        (cb, d, Qb, over(3, 4)),
                        (-1, b, c, cb, Bb, over(5, 4)),
                        (cb, e, Bb, over(4, 3)), (-1, cb, cb, G, over(4, 4)),
                        (bb, cb, cb, Bb, over(4, 5)),
                        (-1, cb, eb, Bb, over(3, 4)),
                        (b, cb, cb, R, over(5, 4)),
                        (-1, cb, db, R, over(4, 3)),
                        (-1, cb, cb, d, over(4, 5)), (c, cb, eb, over(4, 5)),
                        (-1, i, J, over(2, 2)), (-1, cb, E, over(3, 3)),
                        (b, cb, P, over(4, 3)), (-1, db, P, over(3, 2)),
                        (bb, cb, A, over(3, 4)), (-1, eb, A, over(2, 3)),
                        (c, Eb, over(3, 3)), (-1, bb, c, Pb, over(3, 4)),
                        (d, Pb, over(2, 3)), (-1, b, c, A, over(4, 3)),
                        (e, A, over(3, 2)), (-1, i, b, c, eb, over(4, 4)),
                        (-1, i, bb, cb, e, over(4, 4)), (i, e, eb, over(3, 3)),
                        (i, b, cb, d, over(4, 4)), (i, bb, c, db, over(4, 4)),
                        (-1, i, d, db, over(3, 3)))
    ref["V2"] = ctx.sum((c, F, over(3, 2)), (-1, b, c, Q, over(4, 2)),
                        (-1, bb, c, B, over(3, 3)), (c, e, over(4, 2)),
                        (cb, G, over(3, 2)), (-1, bb, cb, Bb, over(3, 3)),
                        (-1, b, cb, R, over(4, 2)), (cb, d, over(3, 3)),
                        (E, over(2, 1)), (-1, b, P, over(3, 1)),
                        (-1, bb, A, over(2, 2)), (i, bb, e, over(3, 2)),
                        (-1, i, b, d, over(3, 2)))
    ref["V3"] = ctx.sum((c, Q, over(3, 1)), (-1, c, c, over(4, 2)),
                        (cb, R, over(3, 1)), (P, over(2, 0)),
                        (-1, i, bb, c, over(3, 2)), (i, d, over(2, 1)))
    ref["V4"] = ctx.sum((c, B, over(2, 2)), (cb, Bb, over(2, 2)),
                        (-1, c, cb, over(3, 3)), (A, over(1, 1)),
                        (i, b, c, over(3, 2)), (-1, i, e, over(2, 1)))
    ref["V8"] = ctx.sum((c, over(2, 1)), (i, bb, over(1, 1)))

    ref["W1"] = ctx.sum((-1, e, K, over(3, 3)), (-1, cb, e, F, over(4, 4)),
                        (b, cb, e, Q, over(5, 4)), (-1, db, e, Q, over(4, 3)),
                        (bb, cb, e, B, over(4, 5)), (-1, e, eb, B, over(3, 4)),
                        (c, e, Gb, over(4, 4)), (-1, b, c, e, B, over(5, 4)),
                        (e, e, B, over(4, 3)), (-1, bb, c, e, Rb, over(4, 5)),
                        (d, e, Rb, over(3, 4)), (c, db, e, over(5, 4)),
                        (-1, cb, e, e, over(5, 4)), (db, Kb, over(3, 3)),
                        (c, db, Fb, over(4, 4)),
                        (-1, bb, c, db, Qb, over(4, 5)),
                        (d, db, Qb, over(3, 4)),
                        (-1, b, c, db, Bb, over(5, 4)),
                        (db, e, Bb, over(4, 3)), (-1, cb, db, G, over(4, 4)),
                        (bb, cb, db, Bb, over(4, 5)),
                        (-1, db, eb, Bb, over(3, 4)),
                        (b, cb, db, R, over(5, 4)),
                        (-1, db, db, R, over(4, 3)),
                        (-1, cb, d, db, over(4, 5)), (c, db, eb, over(4, 5)),
                        (-1, i, b, J, over(3, 3)), (-1, b, cb, E, over(4, 4)),
                        (b, b, cb, P, over(5, 4)), (-1, b, db, P, over(4, 3)),
                        (b, bb, cb, A, over(4, 5)), (-1, b, eb, A, over(3, 4)),
                        (b, c, Eb, over(4, 4)), (-1, b, bb, c, Pb, over(4, 5)),
                        (b, d, Pb, over(3, 4)), (-1, b, b, c, A, over(5, 4)),
                        (b, e, A, over(4, 3)),
                        (-1, i, b, b, c, eb, over(5, 5)),
                        (-1, i, b, bb, cb, e, over(5, 5)),
                        (i, b, e, eb, over(4, 4)),
                        (i, b, b, cb, d, over(5, 5)),
                        (i, b, bb, c, db, over(5, 5)),
                        (-1, i, b, d, db, over(4, 4)))
    ref["W2"] = ctx.sum((e, F, over(3, 2)), (-1, b, e, Q, over(4, 2)),
                        (-1, bb, e, B, over(3, 3)), (e, e, over(4, 2)),
                        (db, G, over(3, 2)), (-1, bb, db, Bb, over(3, 3)),
                        (-1, b, db, R, over(4, 2)), (d, db, over(3, 3)),
                        (b, E, over(3, 2)), (-1, b, b, P, over(4, 2)),
                        (-1, b, bb, A, over(3, 3)), (i, b, bb, e, over(4, 3)),
                        (-1, i, b, b, d, over(4, 3)))
    ref["W3"] = ctx.sum((e, Q, over(3, 1)), (-1, c, e, over(4, 2)),
                        (db, R, over(3, 1)), (b, P, over(3, 1)),
                        (-1, i, b, bb, c, over(4, 3)), (i, b, d, over(3, 2)))
    ref["W4"] = ctx.sum((e, B, over(2, 2)), (db, Bb, over(2, 2)),
                        (-1, c, db, over(3, 3)), (b, A, over(2, 2)),
                        (i, b, b, c, over(4, 3)), (-1, i, b, e, over(3, 2)))
    ref["W5"] = ctx.sum((e, Gb, over(2, 3)), (-1, b, e, B, over(3, 3)),
                        (-1, bb, e, Rb, over(2, 4)), (db, e, over(3, 3)),
                        (db, Fb, over(2, 3)), (-1, bb, db, Qb, over(2, 4)),
                        (-1, b, db, Bb, over(3, 3)), (eb, db, over(2, 4)),
                        (b, Eb, over(2, 3)), (-1, b, bb, Pb, over(2, 4)),
                        (-1, b, b, A, over(3, 3)),
                        (-1, i, b, b, eb, over(3, 4)),
                        (i, b, bb, db, over(3, 4)))
    ref["W6"] = ctx.sum((e, B, over(2, 2)), (-1, cb, e, over(3, 3)),
                        (db, Bb, over(2, 2)), (b, A, over(2, 2)),
                        (-1, i, b, bb, cb, over(3, 4)), (i, b, eb, over(2, 3)))
    ref["W7"] = ctx.sum((e, Rb, over(1, 3)), (db, Qb, over(1, 3)),
                        (-1, cb, db, over(2, 4)), (b, Pb, over(1, 3)),
                        (i, b, b, cb, over(3, 4)), (-1, i, b, db, over(2, 3)))
    ref["W8"] = ctx.sum((e, over(2, 1)), (i, b, bb, over(2, 2)))
    ref["W9"] = ctx.sum((db, over(1, 2)), (-1, i, b, b, over(2, 2)))
    ref["W10"] = i * b / (a * ab)
    return ref


def normalization_reference(sf: StructureFunctions) -> dict[str, Expr]:
    """Closed forms of the base functions normalizing b, c, d, e."""
    ctx = sf.frame.ctx
    i = ctx.const(I)
    L = lambda h: sf.frame.L.apply(h)
    Lb = lambda h: sf.frame.Lbar.apply(h)
    P, Q, R, A, B = sf.P, sf.Q, sf.R, sf.A, sf.B
    Qb, Bb = Q.conj(), B.conj()
    third = ctx.one / 3
    return {
        "B0": -i * B + i * third * Qb,
        "C0": Bb,
        "D0": (i * Lb(R) - i * L(Bb) + 4 * i * third * Qb * R + i * P
               + 2 * i * third * Bb * Q - 2 * i * B * R),
        "E0": (i * Lb(Bb) - i * A - 2 * i * B * Bb + i * third * Bb * Qb),
    }


def second_loop_reference(sf: StructureFunctions) -> dict[str, Expr]:
    """Closed forms of the short second-loop essential torsions (R = 0)."""
    ctx = sf.frame.ctx
    a, ab = ctx.vars("a", "ab")
    i = ctx.const(I)
    L = lambda h: sf.frame.L.apply(h)
    Lb = lambda h: sf.frame.Lbar.apply(h)
    P, Q, A, B = sf.P, sf.Q, sf.A, sf.B
    Pb, Qb, Bb = P.conj(), Q.conj(), B.conj()
    w9 = (i / (9 * ab ** 2)) * (18 * Lb(B) - 3 * Lb(Qb) - 9 * Pb - 12 * B * Qb
                                + 9 * B ** 2 + Qb ** 2)
    x1 = (-i / (9 * a * ab)) * (6 * Lb(Q) + 6 * L(Qb) - 18 * L(B) - 18 * Lb(Bb)
                                + 27 * B * Bb - 6 * B * Q - 6 * Bb * Qb
                                + 2 * Q * Qb + 9 * A)
    return {"W9''": w9, "X1''": x1}


def rneq0_reference(edom, sf: StructureFunctions) -> dict:
    """Displayed closed forms of selected final invariants in the R != 0 branch."""
    frame = sf.frame
    i_lift = edom.lift(frame.ctx.const(I))
    L = lambda h: frame.L.apply(h)
    Lb = lambda h: frame.Lbar.apply(h)
    P, Q, R, A, B = sf.P, sf.Q, sf.R, sf.A, sf.B
    Pb, Qb, Rb, Bb = P.conj(), Q.conj(), R.conj(), B.conj()
    A0, A0b = edom.A0, edom.A0b
    LB_A0 = edom.frame_apply(3, A0)    # Lbar(A0), coframe index 3
    LB_A0b = edom.frame_apply(3, A0b)
    lift = edom.lift
    v3 = lift((-3 * Lb(R) + 9 * B * R - 4 * Qb * R) / 3) / A0 ** 2
    w10 = (lift(3 * B - Qb) * A0 - 3 * LB_A0) / (3 * A0 * A0b)
    w9 = (i_lift * lift(18 * Lb(B) - 9 * L(Rb) - 3 * Lb(Qb) - 12 * Q * Rb
                        - 9 * Pb - 12 * B * Qb + 18 * Bb * Rb + 9 * B ** 2
                        + Qb ** 2)) / (9 * A0b ** 2)
    u4 = (lift(-2) * A0b * LB_A0 - A0 * LB_A0b + A0 * A0b * lift(B)) \
        / (A0 * A0b ** 2)
    return {"V3^new": v3, "W10^new": w10, "W9^new": w9, "U4^new": u4}


def compare(derived: dict, reference: dict) -> list[tuple[str, bool]]:
    """Per-name agreement verdicts; a mismatch is reported, never swallowed."""
    return [(name, bool((derived[name] - reference[name]).is_zero))
            for name in sorted(reference)]


def lbar_closed_form_reference(g) -> tuple:
    """The tangency-solve coefficients A1, A2, A3 in transcribed closed form.

    A_j = (Lambda^j_1 + i Lambda^j_2)/Delta with Delta = sigma^2 + tau^2,
    sigma = tr(Phi_u) - det(Phi_u), tau = -1 + e2(Phi_u); each Lambda^j_1 is
    (block_a) sigma + (block_b) tau and Lambda^j_2 = (block_b) sigma -
    (block_a) tau.
    """
    ctx = g.ctx
    i = ctx.const(I)
    p = {}
    for j in range(1, 4):
        phi = g.phis[j - 1]
        p[f"{j}x"] = phi.diff("x")
        p[f"{j}y"] = phi.diff("y")
        for k in range(1, 4):
            p[f"{j}u{k}"] = phi.diff(f"u{k}")

    def m(spec_):
        return p[spec_]

    sigma = (m("3u3") + m("1u1") + m("2u2")
             - m("1u2") * m("3u1") * m("2u3") - m("1u3") * m("2u1") * m("3u2")
             + m("1u2") * m("2u1") * m("3u3") - m("1u1") * m("2u2") * m("3u3")
             + m("1u1") * m("2u3") * m("3u2") + m("1u3") * m("3u1") * m("2u2"))
    tau = (-ctx.one + m("1u1") * m("2u2") - m("2u3") * m("3u2")
           - m("1u3") * m("3u1") + m("2u2") * m("3u3") - m("1u2") * m("2u1")
           + m("1u1") * m("3u3"))
    delta = sigma ** 2 + tau ** 2

    blocks = []
    blocks.append((
        (-m("3u3") * m("2x") * m("1u2") - m("1u3") * m("3y")
         + m("2u2") * m("1x") * m("3u3") + m("3u3") * m("1y") - m("1x")
         - m("2y") * m("1u2") + m("2u3") * m("3x") * m("1u2")
         + m("2u2") * m("1y") - m("2u3") * m("3u2") * m("1x")
         - m("2u2") * m("1u3") * m("3x") + m("2x") * m("1u3") * m("3u2")),
        (m("1u3") * m("3x") - m("1y") + m("2x") * m("1u2")
         + m("2u3") * m("1u2") * m("3y") - m("2u2") * m("1x")
         - m("2u3") * m("3u2") * m("1y") - m("3u3") * m("1x")
         - m("2u2") * m("1u3") * m("3y") - m("3u3") * m("1u2") * m("2y")
         + m("1u3") * m("3u2") * m("2y") + m("2u2") * m("3u3") * m("1y")),
    ))
    blocks.append((
        (-m("2x") + m("3u3") * m("2y") + m("1u3") * m("2u1") * m("3x")
         - m("2u3") * m("3y") - m("1u3") * m("3u1") * m("2x")
         - m("2u1") * m("1y") - m("2u1") * m("3u3") * m("1x")
         + m("1u1") * m("2y") - m("1u1") * m("2u3") * m("3x")
         + m("3u1") * m("2u3") * m("1x") + m("1u1") * m("3u3") * m("2x")),
        (-m("1u1") * m("2u3") * m("3y") + m("1u3") * m("2u1") * m("3y")
         - m("1u3") * m("3u1") * m("2y") + m("3u1") * m("2u3") * m("1y")
         + m("2u3") * m("3x") - m("2u1") * m("3u3") * m("1y")
         - m("3u3") * m("2x") + m("1u1") * m("3u3") * m("2y")
         + m("2u1") * m("1x") - m("1u1") * m("2x") - m("2y")),
    ))
    blocks.append((
        (-m("2u1") * m("1u2") * m("3x") - m("3u1") * m("1y")
         + m("2u1") * m("3u2") * m("1x") + m("1u1") * m("3y")
         - m("3u1") * m("2u2") * m("1x") - m("3u2") * m("2y")
         + m("3u1") * m("1u2") * m("2x") + m("2u2") * m("3y")
         - m("3u2") * m("1u1") * m("2x") + m("1u1") * m("2u2") * m("3x")
         - m("3x")),
        (-m("3u2") * m("1u1") * m("2y") + m("2u1") * m("3u2") * m("1y")
         + m("3u1") * m("1x") + m("3u1") * m("1u2") * m("2y")
         - m("2u1") * m("1u2") * m("3y") + m("3u2") * m("2x")
         - m("1u1") * m("3x") - m("3u1") * m("2u2") * m("1y")
         + m("1u1") * m("2u2") * m("3y") - m("3y") - m("2u2") * m("3x")),
    ))
    out = []
    for ba, bb in blocks:
        lam1 = ba * sigma + bb * tau
        lam2 = bb * sigma - ba * tau
        out.append((lam1 + i * lam2) / delta)
    return tuple(out)
