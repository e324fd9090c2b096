"""A subgroup handle that only tests build: generators and no membership
oracle.  Its membership decides only the empty word, so two of its cosets
compare as "unknown" unless the words are equal: the path on which
``CosetIndex`` and the coset-graph ball meet an undecided comparison."""

from dataclasses import dataclass

from nearnormal.subgroups import Oracle, SubgroupHandle


@dataclass(frozen=True)
class Bare(Oracle):
    tag = "bare"

    def contains(self, sub, w):
        return True if not w else "unknown"


def bare_subgroup(ctx, gens) -> SubgroupHandle:
    return SubgroupHandle(ctx, tuple(gens), None, Bare())
