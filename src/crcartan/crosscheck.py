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

    ref = {}
    ref["U1"] = (-K / (a * ab ** 2) - cb * F / (a ** 2 * ab ** 3)
                 + b * cb * Q / (a ** 3 * ab ** 3) - db * Q / (a ** 2 * ab ** 2)
                 + bb * cb * B / (a ** 2 * ab ** 4) - eb * B / (a * ab ** 3)
                 + c * Gb / (a ** 2 * ab ** 3) - b * c * B / (a ** 3 * ab ** 3)
                 + e * B / (a ** 2 * ab ** 2) - bb * c * Rb / (a ** 2 * ab ** 4)
                 + d * Rb / (a * ab ** 3) + c * db / (a ** 3 * ab ** 3)
                 - cb * e / (a ** 3 * ab ** 3))
    ref["U2"] = (F / (a * ab) - b * Q / (a ** 2 * ab) - bb * B / (a * ab ** 2)
                 + e / (a ** 2 * ab))
    ref["U3"] = Q / a - c / (a ** 2 * ab)
    ref["U4"] = B / ab
    ref["U5"] = (Gb / ab ** 2 - b * B / (a * ab ** 2) - bb * Rb / ab ** 3
                 + db / (a * ab ** 2))
    ref["U6"] = B / ab - cb / (a * ab ** 2)
    ref["U7"] = a * Rb / ab ** 2

    v1 = (-c * K / (a ** 3 * ab ** 3) - c * cb * F / (a ** 4 * ab ** 4)
          + b * c * cb * Q / (a ** 5 * ab ** 4) - c * db * Q / (a ** 4 * ab ** 3)
          + bb * c * cb * B / (a ** 4 * ab ** 5) - c * eb * B / (a ** 3 * ab ** 4)
          + c * c * Gb / (a ** 4 * ab ** 4) - b * c * c * B / (a ** 5 * ab ** 4)
          + c * e * B / (a ** 4 * ab ** 3) - bb * c * c * Rb / (a ** 4 * ab ** 5)
          + c * d * Rb / (a ** 3 * ab ** 4) + c * c * db / (a ** 5 * ab ** 4)
          - e * c * cb / (a ** 5 * ab ** 4))
    v1 = v1 + (cb * Kb / (a ** 3 * ab ** 3) + c * cb * Fb / (a ** 4 * ab ** 4)
               - bb * c * cb * Qb / (a ** 4 * ab ** 5)
               + cb * d * Qb / (a ** 3 * ab ** 4)
               - b * c * cb * Bb / (a ** 5 * ab ** 4)
               + cb * e * Bb / (a ** 4 * ab ** 3)
               - cb * cb * G / (a ** 4 * ab ** 4)
               + bb * cb * cb * Bb / (a ** 4 * ab ** 5)
               - cb * eb * Bb / (a ** 3 * ab ** 4)
               + b * cb * cb * R / (a ** 5 * ab ** 4)
               - cb * db * R / (a ** 4 * ab ** 3)
               - cb * cb * d / (a ** 4 * ab ** 5)
               + c * cb * eb / (a ** 4 * ab ** 5))
    v1 = v1 + (-i * J / (a ** 2 * ab ** 2) - cb * E / (a ** 3 * ab ** 3)
               + b * cb * P / (a ** 4 * ab ** 3) - db * P / (a ** 3 * ab ** 2)
               + bb * cb * A / (a ** 3 * ab ** 4) - eb * A / (a ** 2 * ab ** 3)
               + c * Eb / (a ** 3 * ab ** 3) - bb * c * Pb / (a ** 3 * ab ** 4)
               + d * Pb / (a ** 2 * ab ** 3) - b * c * A / (a ** 4 * ab ** 3)
               + e * A / (a ** 3 * ab ** 2)
               - i * b * c * eb / (a ** 4 * ab ** 4)
               - i * bb * cb * e / (a ** 4 * ab ** 4)
               + i * e * eb / (a ** 3 * ab ** 3)
               + i * b * cb * d / (a ** 4 * ab ** 4)
               + i * bb * c * db / (a ** 4 * ab ** 4)
               - i * d * db / (a ** 3 * ab ** 3))
    ref["V1"] = v1
    ref["V2"] = (c * F / (a ** 3 * ab ** 2) - b * c * Q / (a ** 4 * ab ** 2)
                 - bb * c * B / (a ** 3 * ab ** 3) + c * e / (a ** 4 * ab ** 2)
                 + cb * G / (a ** 3 * ab ** 2) - bb * cb * Bb / (a ** 3 * ab ** 3)
                 - b * cb * R / (a ** 4 * ab ** 2) + cb * d / (a ** 3 * ab ** 3)
                 + E / (a ** 2 * ab) - b * P / (a ** 3 * ab)
                 - bb * A / (a ** 2 * ab ** 2) + i * bb * e / (a ** 3 * ab ** 2)
                 - i * b * d / (a ** 3 * ab ** 2))
    ref["V3"] = (c * Q / (a ** 3 * ab) - c * c / (a ** 4 * ab ** 2)
                 + cb * R / (a ** 3 * ab) + P / a ** 2
                 - i * bb * c / (a ** 3 * ab ** 2) + i * d / (a ** 2 * ab))
    ref["V4"] = (c * B / (a ** 2 * ab ** 2) + cb * Bb / (a ** 2 * ab ** 2)
                 - c * cb / (a ** 3 * ab ** 3) + A / (a * ab)
                 + i * b * c / (a ** 3 * ab ** 2) - i * e / (a ** 2 * ab))
    ref["V8"] = c / (a ** 2 * ab) + i * bb / (a * ab)

    w1 = (-e * K / (a ** 3 * ab ** 3) - cb * e * F / (a ** 4 * ab ** 4)
          + b * cb * e * Q / (a ** 5 * ab ** 4) - db * e * Q / (a ** 4 * ab ** 3)
          + bb * cb * e * B / (a ** 4 * ab ** 5) - e * eb * B / (a ** 3 * ab ** 4)
          + c * e * Gb / (a ** 4 * ab ** 4) - b * c * e * B / (a ** 5 * ab ** 4)
          + e * e * B / (a ** 4 * ab ** 3) - bb * c * e * Rb / (a ** 4 * ab ** 5)
          + d * e * Rb / (a ** 3 * ab ** 4) + c * db * e / (a ** 5 * ab ** 4)
          - cb * e * e / (a ** 5 * ab ** 4))
    w1 = w1 + (db * Kb / (a ** 3 * ab ** 3) + c * db * Fb / (a ** 4 * ab ** 4)
               - bb * c * db * Qb / (a ** 4 * ab ** 5)
               + d * db * Qb / (a ** 3 * ab ** 4)
               - b * c * db * Bb / (a ** 5 * ab ** 4)
               + db * e * Bb / (a ** 4 * ab ** 3)
               - cb * db * G / (a ** 4 * ab ** 4)
               + bb * cb * db * Bb / (a ** 4 * ab ** 5)
               - db * eb * Bb / (a ** 3 * ab ** 4)
               + b * cb * db * R / (a ** 5 * ab ** 4)
               - db * db * R / (a ** 4 * ab ** 3)
               - cb * d * db / (a ** 4 * ab ** 5)
               + c * db * eb / (a ** 4 * ab ** 5))
    w1 = w1 + (-i * b * J / (a ** 3 * ab ** 3) - b * cb * E / (a ** 4 * ab ** 4)
               + b * b * cb * P / (a ** 5 * ab ** 4)
               - b * db * P / (a ** 4 * ab ** 3)
               + b * bb * cb * A / (a ** 4 * ab ** 5)
               - b * eb * A / (a ** 3 * ab ** 4)
               + b * c * Eb / (a ** 4 * ab ** 4)
               - b * bb * c * Pb / (a ** 4 * ab ** 5)
               + b * d * Pb / (a ** 3 * ab ** 4)
               - b * b * c * A / (a ** 5 * ab ** 4)
               + b * e * A / (a ** 4 * ab ** 3)
               - i * b * b * c * eb / (a ** 5 * ab ** 5)
               - i * b * bb * cb * e / (a ** 5 * ab ** 5)
               + i * b * e * eb / (a ** 4 * ab ** 4)
               + i * b * b * cb * d / (a ** 5 * ab ** 5)
               + i * b * bb * c * db / (a ** 5 * ab ** 5)
               - i * b * d * db / (a ** 4 * ab ** 4))
    ref["W1"] = w1
    ref["W2"] = (e * F / (a ** 3 * ab ** 2) - b * e * Q / (a ** 4 * ab ** 2)
                 - bb * e * B / (a ** 3 * ab ** 3) + e * e / (a ** 4 * ab ** 2)
                 + db * G / (a ** 3 * ab ** 2) - bb * db * Bb / (a ** 3 * ab ** 3)
                 - b * db * R / (a ** 4 * ab ** 2) + d * db / (a ** 3 * ab ** 3)
                 + b * E / (a ** 3 * ab ** 2) - b * b * P / (a ** 4 * ab ** 2)
                 - b * bb * A / (a ** 3 * ab ** 3)
                 + i * b * bb * e / (a ** 4 * ab ** 3)
                 - i * b * b * d / (a ** 4 * ab ** 3))
    ref["W3"] = (e * Q / (a ** 3 * ab) - c * e / (a ** 4 * ab ** 2)
                 + db * R / (a ** 3 * ab) + b * P / (a ** 3 * ab)
                 - i * b * bb * c / (a ** 4 * ab ** 3)
                 + i * b * d / (a ** 3 * ab ** 2))
    ref["W4"] = (e * B / (a ** 2 * ab ** 2) + db * Bb / (a ** 2 * ab ** 2)
                 - c * db / (a ** 3 * ab ** 3) + b * A / (a ** 2 * ab ** 2)
                 + i * b * b * c / (a ** 4 * ab ** 3)
                 - i * b * e / (a ** 3 * ab ** 2))
    ref["W5"] = (e * Gb / (a ** 2 * ab ** 3) - b * e * B / (a ** 3 * ab ** 3)
                 - bb * e * Rb / (a ** 2 * ab ** 4) + db * e / (a ** 3 * ab ** 3)
                 + db * Fb / (a ** 2 * ab ** 3) - bb * db * Qb / (a ** 2 * ab ** 4)
                 - b * db * Bb / (a ** 3 * ab ** 3) + eb * db / (a ** 2 * ab ** 4)
                 + b * Eb / (a ** 2 * ab ** 3) - b * bb * Pb / (a ** 2 * ab ** 4)
                 - b * b * A / (a ** 3 * ab ** 3)
                 - i * b * b * eb / (a ** 3 * ab ** 4)
                 + i * b * bb * db / (a ** 3 * ab ** 4))
    ref["W6"] = (e * B / (a ** 2 * ab ** 2) - cb * e / (a ** 3 * ab ** 3)
                 + db * Bb / (a ** 2 * ab ** 2) + b * A / (a ** 2 * ab ** 2)
                 - i * b * bb * cb / (a ** 3 * ab ** 4)
                 + i * b * eb / (a ** 2 * ab ** 3))
    ref["W7"] = (e * Rb / (a * ab ** 3) + db * Qb / (a * ab ** 3)
                 - cb * db / (a ** 2 * ab ** 4) + b * Pb / (a * ab ** 3)
                 + i * b * b * cb / (a ** 3 * ab ** 4)
                 - i * b * db / (a ** 2 * ab ** 3))
    ref["W8"] = e / (a ** 2 * ab) + i * b * bb / (a ** 2 * ab ** 2)
    ref["W9"] = db / (a * ab ** 2) - i * b * b / (a ** 2 * ab ** 2)
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
