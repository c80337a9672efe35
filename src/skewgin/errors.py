"""The exception types of the library; the type decides the exit code.

Checks that produce *reports* (lists of findings) never raise.  An
exception is a refused input or a failed hypothesis:

- ``SkewginError``: the input is refused (exit 2).  ``issues`` holds its
  (JSON pointer, message) pairs: one, at ``location`` (``/`` by default).
- ``ValidationError``: a refusal with several located issues.
- ``CheckFailed``: the input was read, and a hypothesis of the paper or a
  check derived from it is false on it (exit 1); ``matrix_index`` names
  the failing matrix of ``weyl --matrices``, if any.

Both are ``SkewginError``s, so a library caller catches that one class.
"""


class SkewginError(Exception):
    def __init__(self, message, location="/"):
        super().__init__(message)
        self.issues = [(location, message)]


class ValidationError(SkewginError):
    """Carries a list of (json_pointer, message) pairs."""

    def __init__(self, issues):
        issues = list(issues)
        super().__init__("; ".join(f"{ptr}: {msg}" for ptr, msg in issues))
        self.issues = issues


class CheckFailed(SkewginError):
    def __init__(self, message, matrix_index=None):
        super().__init__(message)
        self.matrix_index = matrix_index
