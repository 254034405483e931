"""The package's one error type, for malformed inputs and violated
preconditions."""


class InputError(ValueError):
    """Raised when an input value breaks a documented precondition.

    The CLI maps this to exit code 2 so that usage errors stay distinct
    from negative verdicts.
    """
