"""RL008 clean fixture: reads and public mutators only."""


def live_rows(relation) -> int:
    # Clean: reading the rows and the locator is allowed.
    return len(relation._rows) + len(relation._locator or "")


def churn(relation, row) -> None:
    # Clean: the relation's own methods keep its structures in step.
    relation.insert(row)
    relation.apply_run([(False, row), (True, row)])
    relation.delete(row)


class Buffer:
    def __init__(self) -> None:
        # Clean: other attribute names are not reserved.
        self._pending_rows = []
        self._pending_rows.append(())
