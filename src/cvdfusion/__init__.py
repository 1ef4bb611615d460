"""Complex-valued distribution vectors and quality-based multi-source fusion.

Public API: validated CvD construction (:func:`make_cvd`,
:func:`make_source_set`), the scalar measures (inner product, norm, cosine,
compatibility, conflict, information quality, aggregate quality), pairwise
matrices, credibility-weighted fusion, quality-maximizing source selection,
and JSON/CSV source-file I/O.

Each module declares the names it contributes in its own ``__all__``; the
package exports their concatenation, in the order below, plus
``__version__``.
"""

from . import core, errors, formats, fusion, measures
from .core import *
from .errors import *
from .formats import *
from .fusion import *
from .measures import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *measures.__all__,
    *fusion.__all__,
    *formats.__all__,
    *errors.__all__,
    "__version__",
]
