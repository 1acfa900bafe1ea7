"""Exception types shared across the toolkit."""


class CuspforgeError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CuspforgeError):
    """Invalid or unparsable analysis configuration."""


class PreconditionViolated(CuspforgeError):
    """An operation was called outside its stated domain."""


class BoxTooSmall(CuspforgeError):
    """A solution converged outside the search box.

    ``escaped`` holds the offending points so callers can enlarge the box.
    """

    def __init__(self, message, escaped=()):
        super().__init__(message)
        self.escaped = list(escaped)


class SingularEncounter(CuspforgeError):
    """A continuation path came too close to the singularity set.

    ``partial`` holds the lift up to the point where it was aborted.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DivergedLift(CuspforgeError):
    """Path lifting failed even after maximal sub-stepping."""


class PermutationInconsistent(CuspforgeError):
    """Loop lifts did not induce a bijection on the base solutions."""
