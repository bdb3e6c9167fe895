"""Exception hierarchy shared by all modules.

The command line maps these onto exit codes: InputError -> 2,
UncertifiedError -> 3, ResourceLimitError -> 4.
"""


class GalorbError(Exception):
    """Base class for errors raised by this package."""


class InputError(GalorbError):
    """Invalid input data: files, arguments, or inconsistent tables."""


class ResourceLimitError(GalorbError):
    """A guard on the work an input asks for was exceeded, such as the
    group order, element-points, a matrix dimension or the screen box."""


class UncertifiedError(GalorbError):
    """charpoly file's seeded search found no element of the target order.
    (An uncertified screen is a result: screen exits 3 without raising.)"""
