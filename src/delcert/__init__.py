"""delcert: certified edit-distance robustness for black-box text
classifiers via randomized token deletion smoothing.

The public surface groups into:

- :mod:`~delcert.tokenization` -- the adversary's tokenizer;
- :mod:`~delcert.edit_metrics` -- constrained edit distances, balls and
  their cardinalities (the DP lives in :mod:`~delcert.kernels`);
- :mod:`~delcert.mechanisms` -- deletion and masking noise;
- :mod:`~delcert.classifier` / :mod:`~delcert.external` -- base models;
- :mod:`~delcert.certify` -- smoothed prediction, score bounds, radii;
- :mod:`~delcert.oracle` -- brute-force ground truth at desk scale;
- :mod:`~delcert.textcrs` -- foreign-certificate coverage calculators;
- :mod:`~delcert.attacks` -- the empirical robustness harness;
- :mod:`~delcert.cli` -- the ``delcert`` command.
"""

from .certify import (
    Certificate,
    ScoreBounds,
    ScoreEstimate,
    certified_radius,
    certify,
    pairwise_bounds,
    radius_from_margin,
    score_bounds,
    smoothed_predict,
)
from .classifier import BuiltinModel, LabeledDataset, train_builtin
from .edit_metrics import (
    ALL_OPS_SETS,
    FULL_OPS,
    CardinalityParams,
    EditDecomposition,
    EditOpsSet,
    edit_decomposition,
    edit_distance,
    enumerate_ball,
    hamming_ball_cardinality,
    lev_ball_cardinality_exact,
    lev_ball_cardinality_lower_bound,
)
from .mechanisms import (
    MechanismKind,
    MechanismParams,
    deletion_keep_matrix,
    pattern_probability,
    sample_masking,
)
from .rng import RandomStream
from .tokenization import Scheme, TokenSeq, detokenize, tokenize

__version__ = "0.1.0"

__all__ = [
    "ALL_OPS_SETS",
    "FULL_OPS",
    "BuiltinModel",
    "CardinalityParams",
    "Certificate",
    "EditDecomposition",
    "EditOpsSet",
    "LabeledDataset",
    "MechanismKind",
    "MechanismParams",
    "RandomStream",
    "Scheme",
    "ScoreBounds",
    "ScoreEstimate",
    "TokenSeq",
    "certified_radius",
    "certify",
    "deletion_keep_matrix",
    "detokenize",
    "edit_decomposition",
    "edit_distance",
    "enumerate_ball",
    "hamming_ball_cardinality",
    "lev_ball_cardinality_exact",
    "lev_ball_cardinality_lower_bound",
    "pairwise_bounds",
    "pattern_probability",
    "radius_from_margin",
    "sample_masking",
    "score_bounds",
    "smoothed_predict",
    "tokenize",
    "train_builtin",
]
