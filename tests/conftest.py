import pytest

from qmpoly import PolymatroidTable, field


@pytest.fixture(scope="session")
def gf2():
    return field(2)


@pytest.fixture(scope="session")
def gf3():
    return field(3)


@pytest.fixture(scope="session")
def gf4():
    return field(2, 2)



@pytest.fixture
def on_table_built(monkeypatch):
    """on_table_built(hook) makes every `PolymatroidTable` built from
    then on call hook(m) first, whether through the public constructor
    or the trusted `PolymatroidTable._of`."""
    def install(hook):
        init, of = PolymatroidTable.__init__, PolymatroidTable._of.__func__

        def counting_init(self, lattice, m, values):
            hook(m)
            init(self, lattice, m, values)

        def counting_of(cls, lattice, m, values):
            hook(m)
            return of(cls, lattice, m, values)
        monkeypatch.setattr(PolymatroidTable, "__init__", counting_init)
        monkeypatch.setattr(PolymatroidTable, "_of", classmethod(counting_of))
    return install
