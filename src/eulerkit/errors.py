"""Exception types shared across the package."""


class EulerkitError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(EulerkitError):
    """Structure failed axiom checks; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(self.violations[:3])
        extra = len(self.violations) - 3
        if extra > 0:
            summary += f"; ... ({extra} more)"
        super().__init__(f"{len(self.violations)} violation(s): {summary}")


class FormatError(EulerkitError):
    """Input data does not conform to the expected schema."""


class BudgetExceededError(EulerkitError):
    """A backtracking search ran past its node budget before deciding;
    `search` names the search."""

    def __init__(self, budget, search):
        self.budget = budget
        self.search = search
        super().__init__(f"search budget of {budget} nodes exceeded in {search}")


class HomChiUndefinedError(EulerkitError):
    """Some hom-level Euler characteristic needed for an adjacency entry does not exist."""

    def __init__(self, pair, depth=1, path=()):
        self.pair = pair
        self.depth = depth
        self.path = tuple(path)
        msg = f"hom-EC undefined at depth {depth}, pair ({pair[0]},{pair[1]})"
        if self.path:
            msg += " via " + " -> ".join(f"({a},{b})" for a, b in self.path)
        super().__init__(msg)


class NotNerveShapedError(EulerkitError):
    """Simplicial data lacks the unique inner-horn fillers a nerve would have."""
