"""RL006 clean fixture: the owner writes and moves the epoch; others read."""


class Catalog:
    epoch = 0

    def __init__(self) -> None:
        self._relations = {}

    @staticmethod
    def _moved() -> None:
        Catalog.epoch += 1

    def add(self, name: str, relation) -> None:
        self._relations[name] = relation
        self._moved()

    def remove(self, name: str):
        relation = self._relations.pop(name)
        self._moved()
        return relation

    def get(self, name: str):
        # Clean: reads never move anything.
        return self._relations[name]


def names(catalog) -> list:
    # Clean: reading another object's map is allowed.
    return sorted(catalog._relations)
