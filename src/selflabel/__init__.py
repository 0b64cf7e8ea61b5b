"""Iterative multi-modal pseudo-label bootstrapping.

Contrastive pretraining of a small embedding network, k-means pseudo-labels
with elbow-selected K, supervised re-training with label smoothing, cluster-
ensemble fusion across modalities, and verification-style scoring (EER,
minDCF, AS-Norm) on a synthetic paired-modality corpus.
"""

__version__ = "0.1.0"
