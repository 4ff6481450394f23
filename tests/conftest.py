import numpy as np

from tactica.algebra import weyl_eval_tuple
from tactica.games import (EpsilonProcess, FeedbackCoupling, InteractiveSystem, Player,
                           zero_epsilon)
from tactica.repdyn import compile_run


def make_player(signal, known_form=None, eps_form=None, eps_dim=0, derivative_order=0):
    if known_form is None:
        known_form = lambda t, u0, phi, derivs, eps, lam: u0  # noqa: E731
    if eps_form is None:
        epsilon = zero_epsilon()
    else:
        epsilon = EpsilonProcess(form=eps_form, dim=eps_dim)
    return Player(
        signal=signal,
        coupling=FeedbackCoupling(known_form=known_form,
                                  derivative_order=derivative_order),
        epsilon=epsilon)


def linear_decay_system():
    """phi' = u, u = u0 + eps*phi with u0 = 0, eps = -1: phi(t) = e^{-t}."""
    return InteractiveSystem(
        dim=1,
        dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(
            lambda t: np.zeros(1),
            known_form=lambda t, u0, phi, derivs, eps, lam: u0 + eps * phi,
            eps_form=lambda t, u0, phi: np.array([-1.0]), eps_dim=1),))


def logistic_system(eps_form=None, eps_dim=0):
    """phi' = u*phi*(1-phi), u = u0 + eps with u0 = 1."""
    if eps_form is None:
        known = lambda t, u0, phi, derivs, eps, lam: u0  # noqa: E731
    else:
        known = lambda t, u0, phi, derivs, eps, lam: u0 + eps  # noqa: E731
    return InteractiveSystem(
        dim=1,
        dynamics=lambda t, phi, u, lam: [u[0][0] * phi[0] * (1.0 - phi[0])],
        players=(make_player(lambda t: np.ones(1), known_form=known,
                             eps_form=eps_form, eps_dim=eps_dim),))


def weyl_value(symbol, X, constants=None, a=None):
    """Symmetrized value of one Weyl symbol at the matrix tuple ``X``."""
    plan = compile_run((symbol,), *X.shape[:2], constants, 0 if a is None else len(a))[0]
    return weyl_eval_tuple(plan, X, a)[0]
