"""Entanglement invariants of pure multipartite quantum states.

Schmidt data, the two- and three-qubit determinant invariants, the
qutrit normal-form invariants, the Majorana stellar representation,
and Monte-Carlo verification of local-unitary invariance, with a
matching command-line interface (``entkit``).  Every name in a library
module's ``__all__`` is importable from the top level.
"""

from . import classify, hyperdet, majorana, qutrit, sampling, schmidt, stateio, states
from .classify import *  # noqa: F403
from .hyperdet import *  # noqa: F403
from .majorana import *  # noqa: F403
from .qutrit import *  # noqa: F403
from .sampling import *  # noqa: F403
from .schmidt import *  # noqa: F403
from .stateio import *  # noqa: F403
from .states import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *states.__all__,
    *stateio.__all__,
    *schmidt.__all__,
    *hyperdet.__all__,
    *qutrit.__all__,
    *majorana.__all__,
    *sampling.__all__,
    *classify.__all__,
]
