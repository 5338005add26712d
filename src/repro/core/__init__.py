"""The paper's contribution: the two-bit-message SWMR atomic register.

This package implements Figure 1 of Mostéfaoui & Raynal (2016) line by line:

* :mod:`repro.core.messages` — the four message types ``WRITE0``, ``WRITE1``,
  ``READ`` and ``PROCEED`` and their control-bit accounting (two bits each,
  never any sequence number on the wire);
* :mod:`repro.core.state` — the per-process local state (``history``,
  ``w_sync``, ``r_sync``) the pseudocode manipulates;
* :mod:`repro.core.process` — :class:`TwoBitRegisterProcess`, the executable
  protocol (writer lines 1–4, reader lines 5–10, handlers lines 11–22), and
  :data:`TWO_BIT_ALGORITHM`, the factory the registry resolves ``"two-bit"``
  to;
* :mod:`repro.core.invariants` — runtime monitors asserting the lemmas the
  correctness proof rests on (Lemmas 1–5 and properties P1/P2).

A deployment of it is a one-key store, like every other algorithm's:
:func:`repro.create_register` / :func:`repro.workloads.deploy_register`.
"""

from repro.core.messages import (
    CONTROL_BITS_PER_MESSAGE,
    ProceedMessage,
    ReadMessage,
    WriteMessage,
    make_write_message,
)
from repro.core.process import TWO_BIT_ALGORITHM, TwoBitRegisterProcess
from repro.core.state import TwoBitState

__all__ = [
    "CONTROL_BITS_PER_MESSAGE",
    "ProceedMessage",
    "ReadMessage",
    "TWO_BIT_ALGORITHM",
    "TwoBitRegisterProcess",
    "TwoBitState",
    "WriteMessage",
    "make_write_message",
]
