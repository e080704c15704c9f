"""delcert: certified edit-distance robustness for black-box text
classifiers via randomized token deletion smoothing.

The public surface groups into:

- :mod:`~delcert.tokenization` -- the adversary's tokenizer;
- :mod:`~delcert.edit_metrics` -- constrained edit distances, balls and
  their cardinalities (the DP lives in :mod:`~delcert.kernels`);
- :mod:`~delcert.mechanisms` -- deletion and masking keep matrices;
- :mod:`~delcert.classifier` / :mod:`~delcert.external` -- base models;
- :mod:`~delcert.certify` -- smoothed prediction, score bounds, radii;
- :mod:`~delcert.oracle` -- brute-force ground truth at desk scale;
- :mod:`~delcert.textcrs` -- foreign-certificate coverage calculators;
- :mod:`~delcert.attacks` -- the empirical robustness harness;
- :mod:`~delcert.cli` -- the ``delcert`` command.

The package re-exports nothing: import each name from its module, so a
process loads only the modules it uses.
"""

__version__ = "0.1.0"
