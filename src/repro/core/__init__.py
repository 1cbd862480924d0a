"""Core algorithms: ClaSS, the streaming k-NN, cross-validation and batch ClaSP."""

from repro.core.class_segmenter import DEFAULT_WINDOW_SIZE, ChangePointReport, ClaSS
from repro.core.clasp_batch import BatchSegmentation, ClaSP
from repro.core.multivariate import FusedChangePoint, MultivariateClaSS
from repro.core.cross_val import (
    CrossValidationResult,
    cross_val_scores_from_thresholds,
    cross_val_scores_incremental,
    cross_val_scores_naive,
    cross_val_scores_vectorised,
    prediction_thresholds,
    predictions_for_split,
)
from repro.core.profile import ClaSPProfile
from repro.core.scoring import (
    SCORE_FUNCTIONS,
    accuracy_score,
    confusion_from_labels,
    fused_split_scores,
    get_score_function,
    macro_f1_score,
)
from repro.core.significance import (
    DEFAULT_SAMPLE_SIZE,
    DEFAULT_SIGNIFICANCE_LEVEL,
    ChangePointSignificanceTest,
    SignificanceResult,
    rank_sum_p_value,
)
from repro.core.similarity import (
    SIMILARITY_MEASURES,
    pairwise_similarity_matrix,
    similarity_profile,
)
from repro.core.streaming_knn import (
    PADDING_INDEX,
    RegionView,
    StreamingKNN,
    exact_knn_bruteforce,
    exclusion_radius,
)
from repro.core.window_size import (
    WSS_METHODS,
    dominant_fourier_frequency_width,
    highest_autocorrelation_width,
    learn_subsequence_width,
    multi_window_finder_width,
    suss_width,
)

__all__ = [
    "ClaSS",
    "ClaSP",
    "MultivariateClaSS",
    "FusedChangePoint",
    "ClaSPProfile",
    "ChangePointReport",
    "BatchSegmentation",
    "CrossValidationResult",
    "ChangePointSignificanceTest",
    "SignificanceResult",
    "StreamingKNN",
    "DEFAULT_WINDOW_SIZE",
    "DEFAULT_SIGNIFICANCE_LEVEL",
    "DEFAULT_SAMPLE_SIZE",
    "SIMILARITY_MEASURES",
    "SCORE_FUNCTIONS",
    "WSS_METHODS",
    "PADDING_INDEX",
    "cross_val_scores_from_thresholds",
    "cross_val_scores_vectorised",
    "cross_val_scores_incremental",
    "cross_val_scores_naive",
    "prediction_thresholds",
    "predictions_for_split",
    "fused_split_scores",
    "RegionView",
    "macro_f1_score",
    "accuracy_score",
    "confusion_from_labels",
    "get_score_function",
    "rank_sum_p_value",
    "similarity_profile",
    "pairwise_similarity_matrix",
    "exact_knn_bruteforce",
    "exclusion_radius",
    "learn_subsequence_width",
    "suss_width",
    "dominant_fourier_frequency_width",
    "highest_autocorrelation_width",
    "multi_window_finder_width",
]
