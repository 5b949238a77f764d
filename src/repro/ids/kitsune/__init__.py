"""Kitsune: an ensemble of autoencoders for online NIDS.

Reimplementation of Mirsky et al. (NDSS 2018): the AfterImage feature
extractor (:mod:`repro.features`), a correlation-based feature mapper
that partitions the 100 features into small groups, KitNET's ensemble
of per-group autoencoders, and an output autoencoder over the ensemble
RMSEs.
"""

from repro.ids.kitsune.feature_mapper import FeatureMapper
from repro.ids.kitsune.kitnet import KitNET
from repro.ids.kitsune.kitsune import Kitsune, grace_periods

__all__ = ["FeatureMapper", "KitNET", "Kitsune", "grace_periods"]
