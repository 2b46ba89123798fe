"""One sha256 over the exact solvers' answers on a fixed corpus.

A change that means to keep every answer, such as a speed-up, must keep this
digest: it covers the gamma_i value and witness, ``gamma_i_value``, the gamma
value and witness, and all three stability certificates (value, witness and
new gamma_i) of every labeled graph of order <= 5 and 100 seeded G(7-13).
A change that means to move an answer records the new digest with its reason.
``ALPHA_DIGEST`` pins, in the same way and on the same graphs plus 20 seeded
G(14-30), the alpha value and witness, ``alpha(g).value`` and
``max_induced_star``.
"""

import hashlib
import random

from idstab import (
    Direction,
    alpha,
    gamma,
    gamma_i,
    gamma_i_value,
    max_induced_star,
    stability,
)

from conftest import all_graphs, random_graph

ANSWER_DIGEST = "daff0cbb0e613bff8f2c349fe57440ab823ed6579abd299886f6ab6d176df57d"
ALPHA_DIGEST = "85a35113c76da3b285e7ea05c6d946aec9539d0ec01caab867f48e8b12aa01c3"


def _graphs():
    yield from all_graphs(5)
    rng = random.Random(0xD16E57)
    for _ in range(100):
        yield random_graph(rng, rng.randint(7, 13))


def _certificate(cert):
    witness = None if cert.witness is None else cert.witness.members()
    return cert.value, witness, cert.new_gamma_i


def _answers(g):
    gi = gamma_i(g)
    dom = gamma(g)
    return (
        gi.value,
        gi.witness.members(),
        gamma_i_value(g),
        dom.value,
        dom.witness.members(),
        *(_certificate(stability(g, d)) for d in Direction),
    )


def test_answer_digest():
    digest = hashlib.sha256()
    for g in _graphs():
        digest.update(f"{g.order} {g.adj} {_answers(g)}\n".encode())
    assert digest.hexdigest() == ANSWER_DIGEST


def _alpha_graphs():
    yield from _graphs()
    rng = random.Random(0xA1F4)
    for _ in range(20):
        yield random_graph(rng, rng.randint(14, 30), rng.choice([0.05, 0.1, 0.2, 0.4, 0.6]))


def test_alpha_digest():
    digest = hashlib.sha256()
    for g in _alpha_graphs():
        cert = alpha(g)
        answers = (cert.value, cert.witness.members(), alpha(g).value, max_induced_star(g))
        digest.update(f"{g.order} {g.adj} {answers}\n".encode())
    assert digest.hexdigest() == ALPHA_DIGEST
