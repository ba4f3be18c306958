"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one type to handle any library failure.
"""


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class NetlistError(ReproError):
    """Malformed netlist: dangling nets, duplicate names, bad gate arity."""


class BenchParseError(NetlistError):
    """A ``.bench`` file could not be parsed."""


class AigError(ReproError):
    """Invalid AIG operation (bad literal, missing node, cyclic graph)."""


class SynthesisError(ReproError):
    """A synthesis transformation failed or a recipe is malformed."""


class MappingError(ReproError):
    """Technology mapping failed (no cell matches a required function)."""


class LockingError(ReproError):
    """Logic locking failed (key size too large, no insertion points)."""


class AttackError(ReproError):
    """An attack could not run (no key inputs, empty training data)."""


class SatError(ReproError):
    """SAT machinery failure (bad CNF, DIMACS parse error, miter mismatch)."""


class MLError(ReproError):
    """Autograd / model construction or training error."""


class SearchError(ReproError):
    """Recipe-search engine failure (unknown strategy, bad batch shape)."""


class PipelineError(ReproError):
    """Experiment pipeline failure (bad stage graph, unknown registration)."""


class SpecError(PipelineError):
    """An experiment spec is malformed (bad field, type, or file format)."""


class CacheError(PipelineError):
    """The artifact cache is unusable (unwritable root, corrupt entry)."""


class AnalysisError(ReproError):
    """Static-analysis failure (duplicate rule code, bad baseline file)."""
