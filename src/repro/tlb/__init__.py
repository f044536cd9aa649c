"""TLB models supporting one or two page sizes — the paper's Section 2.

Exports the fully associative model (2.1), the set-associative model with
its three indexing schemes and two probe strategies (2.2), the split
per-page-size composite (2.2 option c), and the replacement policies.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("TLB",),
        "context": ("ContextSwitchPolicy", "MultiprogrammedTLB"),
        "entry": ("decode_tag", "encode_tag"),
        "fully_assoc": ("FullyAssociativeTLB",),
        "indexing": ("IndexingScheme", "ProbeStrategy"),
        "replacement": (
            "FIFOReplacement",
            "LRUReplacement",
            "RandomReplacement",
            "ReplacementPolicy",
            "TreePLRUReplacement",
            "make_replacement_policy",
        ),
        "set_assoc": ("SetAssociativeTLB",),
        "split": ("SplitTLB",),
        "stats": ("TLBStatistics",),
        "twolevel": ("TwoLevelTLB",),
    },
)

__all__ = [
    "ContextSwitchPolicy",
    "FIFOReplacement",
    "FullyAssociativeTLB",
    "IndexingScheme",
    "MultiprogrammedTLB",
    "LRUReplacement",
    "ProbeStrategy",
    "RandomReplacement",
    "ReplacementPolicy",
    "SetAssociativeTLB",
    "SplitTLB",
    "TLB",
    "TLBStatistics",
    "TreePLRUReplacement",
    "TwoLevelTLB",
    "decode_tag",
    "encode_tag",
    "make_replacement_policy",
]
