"""RL006 clean fixture: the owner writes, moves the epoch and stamps the
names it wrote; others read."""


class Catalog:
    epoch = 0
    stamps = {}

    def __init__(self) -> None:
        self._relations = {}

    @staticmethod
    def _moved(*names: str) -> None:
        Catalog.epoch += 1
        for name in names:
            Catalog.stamps[name] = Catalog.epoch

    def add(self, name: str, relation) -> None:
        self._relations[name] = relation
        self._moved(name)

    def remove(self, name: str):
        relation = self._relations.pop(name)
        self._moved(name)
        return relation

    def get(self, name: str):
        # Clean: reads never move anything.
        return self._relations[name]


def names(catalog) -> list:
    # Clean: reading another object's map is allowed.
    return sorted(catalog._relations)
