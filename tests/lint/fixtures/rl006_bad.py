"""RL006 violating fixture: relation-map writes that skip the epoch."""


class Catalog:
    def __init__(self) -> None:
        # Clean only in the owner module: a new catalog starts empty.
        self._relations = {}

    def _moved(self) -> None:
        pass

    def replace(self, name: str, relation) -> None:
        # Violation (as the owner): the write never moves the epoch.
        self._relations[name] = relation


def rehost(source, target, name: str) -> None:
    # Violations (outside the owner): a pop and a subscript store.
    relation = source.catalog._relations.pop(name)
    target.catalog._relations[name] = relation


def forget(catalog, name: str) -> None:
    # Violation (outside the owner): ``del`` of an item.
    del catalog._relations[name]
