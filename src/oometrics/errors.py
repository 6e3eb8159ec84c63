"""Exception types shared across the toolkit."""


class MetricsError(Exception):
    """Base class for all toolkit errors."""


class DuplicateClass(MetricsError):
    def __init__(self, name: str):
        super().__init__(f"class defined more than once: {name}")
        self.name = name


class InheritanceCycle(MetricsError):
    def __init__(self, path: list[str]):
        super().__init__("inheritance cycle: " + " -> ".join(path))
        self.path = list(path)


class UnknownClass(MetricsError):
    def __init__(self, name: str):
        super().__init__(f"unknown class: {name}")
        self.name = name


class SourceSyntaxError(MetricsError):
    """Malformed declaration (class header, member signature)."""

    def __init__(self, line: int, expected: set[str] | str, found: str = ""):
        expected_set = {expected} if isinstance(expected, str) else set(expected)
        msg = f"line {line}: expected {', '.join(sorted(expected_set))}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)
        self.line = line
        self.expected = expected_set
        self.found = found


class UnbalancedBlock(SourceSyntaxError):
    def __init__(self, line: int):
        super().__init__(line, "}")
        self.line = line


class EncodingError(MetricsError):
    pass


class MalformedGraph(MetricsError):
    pass


class FactsError(MetricsError):
    """A facts file that cannot be read, or a record that
    ``model.FACTS_SCHEMA`` or the model rejects as the model reads it; the
    message names the class, method and key it can, and the file."""


class UndefinedMetric(MetricsError):
    """A metric whose preconditions do not hold for the given class."""

    def __init__(self, metric: str, reason: str):
        super().__init__(f"{metric} undefined: {reason}")
        self.metric = metric
        self.reason = reason


class DegenerateSystem(MetricsError):
    pass


class EmptyModel(MetricsError):
    pass


class MissingProperty(MetricsError):
    def __init__(self, prop: str, index: str):
        super().__init__(f"property {prop} is undefined; cannot compute {index}")
        self.property = prop
        self.index = index


class DomainError(MetricsError):
    pass


class BadRange(MetricsError):
    def __init__(self, j: int, k: int):
        super().__init__(f"bad version window: j={j}, k={k}")
        self.j = j
        self.k = k


class DegenerateBaseline(MetricsError):
    pass


class BaselineMismatch(MetricsError):
    pass


class NoInput(MetricsError):
    pass


class ConfigError(MetricsError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class WrongAxisCount(MetricsError):
    def __init__(self, got: int, want: int):
        super().__init__(f"kiviat chart needs {want} rows, got {got}")
        self.got = got
        self.want = want
