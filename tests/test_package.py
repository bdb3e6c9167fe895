"""Every exported name resolves, so a deletion that leaves an __all__
entry behind fails here."""

import galorb
from galorb import screening


def test_exported_names_resolve_and_star_import_works():
    for mod in (galorb, screening):
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
        ns = {}
        exec(f"from {mod.__name__} import *", ns)
        assert set(mod.__all__) <= ns.keys()
