"""RL007 violating fixture: MKB constraint and index writes from outside."""


def retire_by_hand(mkb, pc) -> None:
    # Violations: list writes that skip the index patch.
    mkb._pc_constraints.remove(pc)
    mkb._historical_pc.append(pc)


def reset_index(mkb) -> None:
    # Violations: a store, a ``del`` of an item and an augmented store.
    mkb._index = {}
    del mkb._sync_pc["R"]
    mkb._index_version -= 1


def patch_bucket(mkb, jc) -> None:
    # Violations: a mutator through a subscript, a subscript store.
    mkb._index[("join", "R")].append(jc)
    mkb._join_constraints[0] = jc
    mkb._historical_join += [jc]
