"""Detector configurations of the three workloads (no heavy imports here:
the set-up probe reads them before timing the program's own imports)."""

#: ClaSS at the paper's defaults, spelled out so a change of defaults shows.
PAPER_CONFIG = {
    "window_size": 10_000,
    "scoring_interval": 1,
    "k_neighbours": 3,
    "significance_level": 1e-50,
    "sample_size": 1_000,
}
PAPER_CHUNK = 1_024

#: One service-fleet stream: small window, scored every 10 observations.
FLEET_CONFIG = {"window_size": 100, "scoring_interval": 10, "subsequence_width": 5}
FLEET_SPEC = {"detector": "class", "config": FLEET_CONFIG, "include_scores": True}

#: Stored-stream replay: a cheap detector behind the dirty-data sanitizer.
ARCHIVE_DETECTOR = "page-hinkley"
ARCHIVE_CONFIG = {"data_policy": {"nan_policy": "hold-last", "max_gap": 1_000}}
