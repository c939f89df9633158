"""Stable anti-Yetter-Drinfeld coefficients.

Two chiralities, kept explicit because Pontryagin dualization swaps them:

* left-right: a left action H (x) M -> M and a right coaction M -> M (x) H;
* right-left: a right action M (x) H -> M and a left coaction M -> H (x) M.

The canonical coefficients are ad(H) (left-right, adjoint action, coaction
the comultiplication) and coad(H) (right-left, action the multiplication,
coadjoint coaction h -> S(h_(3)) h_(1) (x) h_(2)).  The coadjoint formula is
not trusted: ad and coad are only accepted because the compatibility and
stability checkers below pass on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hopf import AxiomCheck, HopfError, ValidationReport
from .linalg import LegChain, SparseMatrix, apply_on_leg, tensor_unindex


class SaydError(HopfError):
    pass


@dataclass
class SaydModule:
    """A module-comodule over ``hopf`` with explicit chirality.

    ``operator_action`` is the H (x) M -> M map the cyclic constructions
    plug into their face and cyclic operators; for left-right coefficients
    it is the action itself, for coad(H) it is left multiplication.

    ``cotensor_coaction`` (M -> M (x) H) is the right-comodule structure
    the cotensor over H is taken against.  For left-right coefficients it
    is the coaction itself; for coad(H) it is the right-sided coadjoint
    coaction h -> h_(2) (x) h_(3) S(h_(1)), which differs from the
    antipode-switch of the left one whenever S^2 != id.
    """

    hopf: object
    chirality: str  # "left-right" or "right-left"
    action: SparseMatrix
    coaction: SparseMatrix
    name: str = ""
    operator_action: SparseMatrix | None = None
    cotensor_coaction: SparseMatrix | None = None

    def __post_init__(self):
        d = self.hopf.dim
        if self.chirality == "left-right":
            self.dim = self.action.rows
            if self.action.cols != d * self.dim or self.coaction.rows != self.dim * d:
                raise SaydError("action/coaction shapes do not match chirality")
            if self.operator_action is None:
                self.operator_action = self.action
            if self.cotensor_coaction is None:
                self.cotensor_coaction = self.coaction
        elif self.chirality == "right-left":
            self.dim = self.action.rows
            if self.action.cols != self.dim * d or self.coaction.rows != d * self.dim:
                raise SaydError("action/coaction shapes do not match chirality")
        else:
            raise SaydError(f"unknown chirality {self.chirality!r}")
        if self.coaction.cols != self.dim:
            raise SaydError("coaction does not start from M")

    def __repr__(self):
        return f"SaydModule({self.name}, dim={self.dim}, {self.chirality})"


def _module_axioms(m):
    h = m.hopf
    d, md, f = h.dim, m.dim, h.field
    ident_m = SparseMatrix.identity(md, f)
    checks = []
    if m.chirality == "left-right":
        # act(mu (x) id) = act(id (x) act), act(eta (x) id) = id
        lhs = m.action @ apply_on_leg(h.mu, [d, d, md], 0, 2)
        rhs = m.action @ apply_on_leg(m.action, [d, d, md], 1, 2)
        checks.append(AxiomCheck("module associativity", lhs == rhs))
        checks.append(AxiomCheck("module unit", m.action @ h.eta.kron(ident_m) == ident_m))
        # (id (x) Delta) rho = (rho (x) id) rho, (id (x) eps) rho = id
        legs = LegChain([md, d], f)
        lhs = legs.leg(h.delta, 1) @ m.coaction
        rhs = legs.leg(m.coaction, 0) @ m.coaction
        checks.append(AxiomCheck("comodule coassociativity", lhs == rhs))
        checks.append(AxiomCheck("comodule counit", ident_m.kron(h.eps) @ m.coaction == ident_m))
    else:
        lhs = m.action @ apply_on_leg(h.mu, [md, d, d], 1, 2)
        rhs = m.action @ apply_on_leg(m.action, [md, d, d], 0, 2)
        checks.append(AxiomCheck("module associativity", lhs == rhs))
        checks.append(AxiomCheck("module unit", m.action @ ident_m.kron(h.eta) == ident_m))
        legs = LegChain([d, md], f)
        lhs = legs.leg(h.delta, 0) @ m.coaction
        rhs = legs.leg(m.coaction, 1) @ m.coaction
        checks.append(AxiomCheck("comodule coassociativity", lhs == rhs))
        checks.append(AxiomCheck("comodule counit", h.eps.kron(ident_m) @ m.coaction == ident_m))
    return checks


def check_ayd(m):
    """Compare both sides of the anti-Yetter-Drinfeld compatibility as
    matrices; each coproduct factor of h is multiplied into its leg as soon
    as it is split off, so no column carries more than four legs."""
    h = m.hopf
    d, md, f = h.dim, m.dim, h.field
    lhs = m.coaction @ m.action
    if m.chirality == "left-right":
        # (h.m)_(0) (x) (h.m)_(1) = h_(2).m_(0) (x) h_(3) m_(1) S(h_(1)):
        # (h, m) -> (h1, h', m0, m1) -> (h', m0, m1 S h1) -> (h2, m0, h3, x) -> (h2.m0, h3 x)
        rhs = LegChain([d, md], f).leg(m.coaction, 1, 1, [md, d]).leg(h.delta, 0, 1, [d, d]) \
            .leg(h.antipode, 0).perm([1, 2, 3, 0]).leg(h.mu, 2, 2) \
            .leg(h.delta, 0, 1, [d, d]).perm([0, 2, 1, 3]).leg(m.action, 0, 2) \
            .leg(h.mu, 1, 2).matrix()
        dims = [d, md]
    else:
        # (m.h)_(-1) (x) (m.h)_(0) = S(h_(3)) m_(-1) h_(1) (x) m_(0) h_(2):
        # (m, h) -> (m-1, m0, h', h3) -> (S(h3) m-1, m0, h') -> (y, h1, m0, h2) -> (y h1, m0 h2)
        rhs = LegChain([md, d], f).leg(m.coaction, 0, 1, [d, md]).leg(h.delta, 2, 1, [d, d]) \
            .leg(h.antipode, 3).perm([3, 0, 1, 2]).leg(h.mu, 0, 2) \
            .leg(h.delta, 2, 1, [d, d]).perm([0, 2, 1, 3]).leg(h.mu, 0, 2) \
            .leg(m.action, 1, 2).matrix()
        dims = [md, d]
    checks = [_compare("anti-Yetter-Drinfeld compatibility", lhs, rhs, dims)]
    return ValidationReport(checks)


def _compare(name, lhs, rhs, dims):
    if lhs == rhs:
        return AxiomCheck(name, True)
    col = min((lhs - rhs).entries())[1]
    return AxiomCheck(name, False, f"basis pair {tensor_unindex(dims, col)}")


def check_stable(m):
    """Stability: acting by the coaction leg returns the element itself."""
    h = m.hopf
    d, md, f = h.dim, m.dim, h.field
    legs = [md, d] if m.chirality == "left-right" else [d, md]
    composite = LegChain(legs, f).perm([1, 0]).leg(m.action, 0, 2) @ m.coaction
    checks = [_compare("stability", composite, SparseMatrix.identity(md, f), [md])]
    return ValidationReport(checks)


def validate_sayd(m):
    checks = _module_axioms(m)
    checks += check_ayd(m).checks
    checks += check_stable(m).checks
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# canonical coefficients


def ad_module(h):
    """ad(H): H with the adjoint action h |> h' = h_(2) h' S(h_(1)) and
    coaction the comultiplication.  Rejected loudly if the checkers fail."""
    d = h.dim
    action = LegChain([d, d], h.field).leg(h.delta, 0, 1, [d, d]).leg(h.antipode, 0) \
        .perm([1, 2, 0]).leg(h.mu, 0, 2).leg(h.mu, 0, 2).matrix()  # (h2, h', S h1)
    m = SaydModule(h, "left-right", action, h.delta, name=f"ad({h.name})")
    rep = validate_sayd(m)
    if not rep.ok:
        raise SaydError(f"ad({h.name}) fails: {[c.name for c in rep.failures()]}")
    return m


def coad_module(h):
    """coad(H): H with right multiplication and the coadjoint coaction
    h -> S(h_(3)) h_(1) (x) h_(2); the checkers are the arbiter of the formula.

    The companion right-sided coadjoint coaction h -> h_(2) (x) h_(3) S(h_(1))
    is attached as the cotensor structure; it is what the invariant cyclic
    object of a comodule subalgebra equalizes against.
    """
    d = h.dim
    split = LegChain([d], h.field).leg(h.delta, 0, 1, [d, d]).leg(h.delta, 1, 1, [d, d])
    # (h1, h2, h3) -> S(h3) h1 (x) h2
    coaction = split.leg(h.antipode, 2).perm([2, 0, 1]).leg(h.mu, 0, 2).matrix()
    # (h1, h2, h3) -> h2 (x) h3 S(h1)
    cotensor = split.leg(h.antipode, 0).perm([1, 2, 0]).leg(h.mu, 1, 2).matrix()
    m = SaydModule(h, "right-left", h.mu, coaction, name=f"coad({h.name})",
                   operator_action=h.mu, cotensor_coaction=cotensor)
    rep = validate_sayd(m)
    if not rep.ok:
        raise SaydError(f"coad({h.name}) fails: {[c.name for c in rep.failures()]}")
    return m
