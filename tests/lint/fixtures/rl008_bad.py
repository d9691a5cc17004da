"""RL008 violating fixture: relation row and locator writes from outside."""


def append_by_hand(relation, row) -> None:
    # Violations: list writes that skip the indexes and the locator.
    relation._rows.append(row)
    relation._tail.extend([1])


def reset_locator(relation) -> None:
    # Violations: a store, a ``del`` of an item and an augmented store.
    relation._locator = None
    del relation._rows[0]
    relation._locator += "x"


def patch_derived(relation) -> None:
    # Violations: dict writers and a subscript store.
    relation._indexes.pop((0,))
    relation._rows[0] = ()
    relation._indexes.clear()
