"""Exception hierarchy shared by every stage of the pipeline.

Anything raised on purpose derives from LeakscopeError so the CLI can map
analysis failures to a distinct exit code.
"""

from __future__ import annotations


class LeakscopeError(Exception):
    """Base class for all toolkit errors."""


class ParseError(LeakscopeError):
    """Source text does not conform to the HDL subset grammar."""

    def __init__(self, message: str, file: str = "<input>", line: int = 0, col: int = 0):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.file = file
        self.line = line
        self.col = col


class UnresolvedIdentifier(ParseError):
    """An identifier does not name any declared signal, port, or instance."""


class RecursiveInstantiation(LeakscopeError):
    def __init__(self, cycle: list[str]):
        super().__init__("recursive instantiation: " + " -> ".join(cycle))
        self.cycle = cycle


class PortMismatch(ParseError):
    """An instance port map does not line up with the instantiated module."""


class UnsupportedConstruct(ParseError):
    """Input uses a construct outside the frozen HDL subset."""


class CombinationalLoop(LeakscopeError):
    def __init__(self, instance: str, signals: list[str]):
        super().__init__(
            f"combinational logic did not settle in instance {instance!r}; "
            f"unstable signals: {', '.join(signals)}"
        )
        self.instance = instance
        self.signals = signals


class VcdParseError(LeakscopeError):
    def __init__(self, line: int, message: str):
        super().__init__(f"VCD line {line}: {message}")
        self.line = line


class ClockNotFound(LeakscopeError):
    """The VCD contains no signal usable as the designated clock."""


class UnknownScope(LeakscopeError):
    """A VCD scope has no mapping onto a design instance path."""


class UnknownInstance(LeakscopeError):
    """Requested instance path does not exist in the trace bundle."""


class StructuralMismatch(LeakscopeError):
    """Two runs being compared do not share structural stimulus shape."""


class NoDivergence(LeakscopeError):
    """Diagnosis found no cycle at which the two traces differ."""


class SignalMismatch(LeakscopeError):
    """Trace signal set does not match the graph being diagnosed."""


class PathNotInGraph(LeakscopeError):
    """A micro-event path references edges missing from the graph."""


class SimulationLimitError(LeakscopeError):
    """A cycle cap below 1 or a negative quiescence window."""


class ExpressionEvalError(LeakscopeError):
    def __init__(self, expr: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"cannot evaluate {expr!r}{detail}")
        self.expr = expr


class StimulusError(LeakscopeError):
    """A stimulus is malformed or does not type-check against the design."""
