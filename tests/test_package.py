"""The package's public namespace."""

import detcert


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from detcert import *", namespace)
    assert len(set(detcert.__all__)) == len(detcert.__all__)
    for name in detcert.__all__:
        assert namespace[name] is getattr(detcert, name)
